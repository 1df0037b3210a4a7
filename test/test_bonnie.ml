(* Benchmark-harness tests: the workloads run, and — this being the
   paper's headline claim — the comparative *shape* holds: FFS is
   clearly fastest, while CFS-NE and DisCFS are virtually identical
   (the credential machinery with a warm policy cache costs almost
   nothing). *)

let within pct a b =
  let hi = max a b and lo = min a b in
  (hi -. lo) /. hi <= pct /. 100.0

let run_all ?(size_mb = 1) () =
  let ffs = Bonnie.Bench.run ~backend:(Bonnie.Backend.ffs_local ()) ~size_mb () in
  let cfs = Bonnie.Bench.run ~backend:(Bonnie.Backend.cfs_ne ()) ~size_mb () in
  let dis = Bonnie.Bench.run ~backend:(Bonnie.Backend.discfs ()) ~size_mb () in
  (ffs, cfs, dis)

let bonnie_results = lazy (run_all ())

let check_shape name metric =
  let ffs, cfs, dis = Lazy.force bonnie_results in
  let f = metric ffs and c = metric cfs and d = metric dis in
  Alcotest.(check bool) (name ^ ": FFS beats CFS-NE") true (f > c *. 1.5);
  Alcotest.(check bool) (name ^ ": FFS beats DisCFS") true (f > d *. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "%s: CFS-NE ~ DisCFS (%.0f vs %.0f K/s)" name c d)
    true (within 10.0 c d);
  Alcotest.(check bool) (name ^ ": DisCFS not faster than CFS-NE") true (d <= c)

let test_fig7 () = check_shape "out-char" (fun r -> r.Bonnie.Bench.out_char_kps)
let test_fig8 () = check_shape "out-block" (fun r -> r.Bonnie.Bench.out_block_kps)
let test_fig9 () = check_shape "rewrite" (fun r -> r.Bonnie.Bench.rewrite_kps)
let test_fig10 () = check_shape "in-char" (fun r -> r.Bonnie.Bench.in_char_kps)
let test_fig11 () = check_shape "in-block" (fun r -> r.Bonnie.Bench.in_block_kps)

let test_char_slower_than_block () =
  let ffs, cfs, dis = Lazy.force bonnie_results in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Bonnie.Bench.label ^ ": char I/O adds CPU cost")
        true
        (r.Bonnie.Bench.out_char_kps <= r.Bonnie.Bench.out_block_kps
        && r.Bonnie.Bench.in_char_kps <= r.Bonnie.Bench.in_block_kps))
    [ ffs; cfs; dis ]

let small_spec =
  { Bonnie.Search.dirs = 6; files_per_dir = 8; mean_file_size = 4096; seed = "test-tree" }

let test_search_totals_agree () =
  let run backend =
    Bonnie.Search.build backend small_spec;
    Bonnie.Search.run backend
  in
  let t_ffs, time_ffs = run (Bonnie.Backend.ffs_local ()) in
  let t_cfs, time_cfs = run (Bonnie.Backend.cfs_ne ()) in
  let t_dis, time_dis = run (Bonnie.Backend.discfs ()) in
  (* All three systems see the same tree and count the same totals. *)
  Alcotest.(check int) "files agree" t_ffs.Bonnie.Search.files t_cfs.Bonnie.Search.files;
  Alcotest.(check int) "files agree (discfs)" t_ffs.Bonnie.Search.files t_dis.Bonnie.Search.files;
  Alcotest.(check int) "bytes agree" t_ffs.Bonnie.Search.bytes t_dis.Bonnie.Search.bytes;
  Alcotest.(check bool) "found files" true (t_ffs.Bonnie.Search.files > 20);
  Alcotest.(check bool) "counted lines" true (t_ffs.Bonnie.Search.lines > 100);
  (* Figure 12 shape: FFS much faster; CFS-NE ~ DisCFS. *)
  Alcotest.(check bool) "FFS fastest" true (time_ffs < time_cfs && time_ffs < time_dis);
  Alcotest.(check bool)
    (Printf.sprintf "CFS-NE ~ DisCFS (%.3fs vs %.3fs)" time_cfs time_dis)
    true
    (within 15.0 time_cfs time_dis);
  Alcotest.(check bool) "DisCFS pays its overhead" true (time_dis >= time_cfs)

let test_search_cache_effect () =
  (* With the policy cache disabled every operation pays a full
     KeyNote query; the walk must get measurably slower. *)
  let run cache_size =
    let b = Bonnie.Backend.discfs ~cache_size () in
    Bonnie.Search.build b small_spec;
    snd (Bonnie.Search.run b)
  in
  let cold = run 0 in
  let warm = run 128 in
  Alcotest.(check bool)
    (Printf.sprintf "cache helps (%.3fs uncached vs %.3fs cached)" cold warm)
    true (cold > warm)

let test_deploy_registry () =
  let b = Bonnie.Backend.discfs () in
  (match b.Bonnie.Backend.parts with
  | Some _ -> ()
  | None -> Alcotest.fail "discfs deployment not registered");
  let ffs = Bonnie.Backend.ffs_local () in
  Alcotest.(check bool) "ffs has no deployment" true (ffs.Bonnie.Backend.parts = None)

(* A dropped backend takes its testbed with it: nothing global may keep
   the cluster, and every block written to its volume, reachable. *)
let test_backend_releases_testbed () =
  let weak = Weak.create 1 in
  let[@inline never] build () =
    let b = Bonnie.Backend.discfs ~nblocks:256 ~ninodes:64 () in
    Weak.set weak 0 (Option.map fst b.Bonnie.Backend.parts)
  in
  build ();
  let built = Weak.check weak 0 in
  Gc.full_major ();
  Alcotest.(check bool) "a discfs backend has a cluster" true built;
  Alcotest.(check bool) "cluster collected" false (Weak.check weak 0)

let suite =
  [
    Alcotest.test_case "figure 7 shape (out char)" `Slow test_fig7;
    Alcotest.test_case "figure 8 shape (out block)" `Slow test_fig8;
    Alcotest.test_case "figure 9 shape (rewrite)" `Slow test_fig9;
    Alcotest.test_case "figure 10 shape (in char)" `Slow test_fig10;
    Alcotest.test_case "figure 11 shape (in block)" `Slow test_fig11;
    Alcotest.test_case "char phases cost CPU" `Slow test_char_slower_than_block;
    Alcotest.test_case "figure 12 search shape" `Slow test_search_totals_agree;
    Alcotest.test_case "policy cache ablation" `Slow test_search_cache_effect;
    Alcotest.test_case "deployment registry" `Quick test_deploy_registry;
    Alcotest.test_case "dropped backend frees its testbed" `Quick test_backend_releases_testbed;
  ]
