(* The dynamic half of the race detector, bottom-up.

   Unit tests drive Race directly on a bare scheduler: the synthetic
   two-process check-then-act the checker must catch (with process,
   epoch and label context), the value-aware benign classification,
   the wipe semantics, and the null monitor's do-nothing contract.

   Integration tests arm `Cluster.make ~racecheck:true` and replay the
   two known-delicate windows as golden atomicity proofs: the pooled
   concurrent workload (DRC coalescing + bcache fills under
   readahead) and a churn run with retransmitting retries and a
   mid-run crash must both finish with zero reports while the access
   counter proves the instrumentation was live.

   Schedule exploration: QCheck properties assert that N tie-seed
   perturbations of the figure-12-style walk (boot storm) and a
   crashless churn leave the logical end state byte-identical, and
   that a disabled tie seed preserves FIFO order exactly. The same
   checker and perturbations run on a 4-frontend `Cluster` whose
   lease, invalidate, redirect and crash paths race client traffic. *)

module Clock = Simnet.Clock
module Sched = Simnet.Sched
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client

let mk_sched () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  s

let mk_ctx ?annotate s =
  Race.create ?annotate
    ~pid:(fun () -> Sched.current_pid s)
    ~epoch:(fun () -> Sched.events_run s)
    ()

let contains msg hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  Alcotest.(check bool) msg true (go 0)

(* --- the checker itself ---------------------------------------------- *)

let test_synthetic_check_then_act () =
  let s = mk_sched () in
  let ctx = mk_ctx s in
  let mon = Race.monitor ctx "fixture" in
  Alcotest.(check bool) "monitor live" true (Race.enabled mon);
  (* discfs-lint: allow races "the deliberate race under test: the checker itself is the mediation being exercised" *)
  Sched.spawn s (fun () ->
      Race.note mon "reader proc";
      Race.check mon ~key:"slot";
      Sched.sleep s 1.0;
      (* the check-then-act window spans the sleep's yield *)
      Race.act mon ~key:"slot" ());
  (* discfs-lint: allow races "the deliberate race under test: this process supplies the intervening write" *)
  Sched.spawn s (fun () ->
      Race.note mon "writer proc";
      Sched.sleep s 0.5;
      Race.write mon ~key:"slot" ());
  Sched.run s;
  Alcotest.(check int) "exactly one report" 1 (Race.total_reports ctx);
  Alcotest.(check bool) "accesses counted" true (Race.accesses ctx > 0);
  match Race.reports ctx with
  | [ r ] ->
    Alcotest.(check string) "structure named" "fixture" r.Race.r_structure;
    Alcotest.(check string) "key named" "slot" r.Race.r_key;
    Alcotest.(check bool) "check and write from different processes" true
      (r.Race.r_check.Race.a_pid <> r.Race.r_write.Race.a_pid);
    Alcotest.(check bool) "write strictly after the check" true
      (r.Race.r_write.Race.a_epoch > r.Race.r_check.Race.a_epoch);
    Alcotest.(check bool) "act closes at or after the write" true
      (r.Race.r_act_epoch >= r.Race.r_write.Race.a_epoch);
    Alcotest.(check string) "checking process labeled" "reader proc"
      r.Race.r_check.Race.a_label;
    Alcotest.(check string) "writing process labeled" "writer proc"
      r.Race.r_write.Race.a_label;
    let txt = Race.render_report r in
    List.iter
      (fun sub -> contains ("report text carries " ^ sub) txt sub)
      [ "fixture"; "slot"; "reader proc"; "writer proc" ]
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_benign_same_value () =
  let s = mk_sched () in
  let ctx = mk_ctx s in
  let mon = Race.monitor ctx "fixture" in
  (* discfs-lint: allow races "the deliberate duplicate-fill under test" *)
  Sched.spawn s (fun () ->
      Race.check mon ~key:"blk";
      Sched.sleep s 1.0;
      Race.act mon ~value:"same-bytes" ~key:"blk" ());
  (* discfs-lint: allow races "the deliberate duplicate-fill under test" *)
  Sched.spawn s (fun () ->
      Sched.sleep s 0.5;
      Race.write mon ~value:"same-bytes" ~key:"blk" ());
  Sched.run s;
  Alcotest.(check int) "no report" 0 (Race.total_reports ctx);
  Alcotest.(check int) "conflict classified benign" 1 (Race.benign ctx)

let test_wipe_clears_windows () =
  let s = mk_sched () in
  let ctx = mk_ctx s in
  let mon = Race.monitor ctx "fixture" in
  (* discfs-lint: allow races "the wipe-semantics window under test" *)
  Sched.spawn s (fun () ->
      Race.check mon ~key:"k";
      Sched.sleep s 1.0;
      Race.act mon ~key:"k" ());
  (* discfs-lint: allow races "the wipe-semantics window under test" *)
  Sched.spawn s (fun () ->
      Sched.sleep s 0.5;
      Race.wipe mon;
      Race.write mon ~key:"k" ());
  Sched.run s;
  Alcotest.(check int) "window cannot span a wipe" 0 (Race.total_reports ctx)

let test_annotate_fallback () =
  let s = mk_sched () in
  let ctx = mk_ctx ~annotate:(fun () -> Some "span: nfs.read") s in
  let mon = Race.monitor ctx "fixture" in
  (* discfs-lint: allow races "the deliberate race under test, unlabeled so the annotate fallback fires" *)
  Sched.spawn s (fun () ->
      Race.check mon ~key:"k";
      Sched.sleep s 1.0;
      Race.act mon ~key:"k" ());
  (* discfs-lint: allow races "the deliberate race under test, unlabeled so the annotate fallback fires" *)
  Sched.spawn s (fun () ->
      Sched.sleep s 0.5;
      Race.write mon ~key:"k" ());
  Sched.run s;
  match Race.reports ctx with
  | [ r ] ->
    Alcotest.(check string) "trace-span context on the check" "span: nfs.read"
      r.Race.r_check.Race.a_label
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_null_monitor () =
  Alcotest.(check bool) "null monitor disabled" false (Race.enabled Race.null);
  (* every operation must be an inert no-op *)
  Race.note Race.null "x";
  Race.read Race.null ~key:"k";
  Race.check Race.null ~key:"k";
  Race.write Race.null ~key:"k" ();
  Race.act Race.null ~key:"k" ();
  Race.wipe Race.null;
  Alcotest.(check (option (pair int int))) "no origin" None (Race.origin Race.null)

(* --- golden atomicity proofs over a live deployment ------------------- *)

(* The pooled concurrent workload from the concurrency suite, with the
   checker armed and the bcache + readahead on: DRC admission/
   coalescing and generation-guarded bcache fills must produce zero
   reports while the access counter proves the monitors saw traffic. *)
let test_deploy_atomicity_proof () =
  let d =
    Cluster.make ~workers:3 ~queue_depth:16 ~cache_blocks:64 ~readahead:4
      ~racecheck:true ()
  in
  let sched = Option.get (Cluster.sched d) in
  let ctx = Option.get (Cluster.race_ctx d) in
  let clients =
    List.init 3 (fun i ->
        let c = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:i () in
        let name = Printf.sprintf "f%d.txt" i in
        let fh, _, _ = CC.create c ~dir:(CC.root c) name () in
        (i, c, fh))
  in
  List.iter
    (fun (i, c, fh) ->
      (* discfs-lint: allow races "each process owns its client and file handle end to end" *)
      Sched.spawn sched (fun () ->
          let body = Printf.sprintf "client-%d-body" i in
          CC.write_all c fh body;
          ignore
            (CC.read c fh ~off:0
               ~count:(String.length body))))
    clients;
  Sched.run sched;
  Alcotest.(check bool) "instrumentation live" true (Race.accesses ctx > 0);
  Alcotest.(check (list string)) "zero reports: the windows are atomic" []
    (List.map Race.render_report (Race.reports ctx))

(* The bcache half of the known-delicate pair, pinned directly: a
   readahead fill whose decision predates a crash-driven drop must
   not warm the next incarnation's cache. *)
let test_bcache_generation_guard () =
  let b = Ffs.Bcache.create ~capacity:4 in
  let g = Ffs.Bcache.generation b in
  Ffs.Bcache.insert_if b ~generation:g 0 (Bytes.make 4 'a');
  Alcotest.(check bool) "fresh fill lands" true (Ffs.Bcache.mem b 0);
  Ffs.Bcache.drop b;
  (* the in-flight readahead completes against the old generation *)
  Ffs.Bcache.insert_if b ~generation:g 1 (Bytes.make 4 'b');
  Alcotest.(check bool) "stale fill refused" false (Ffs.Bcache.mem b 1);
  Alcotest.(check int) "stale fill counted" 1 (Ffs.Bcache.stale_fills b);
  Ffs.Bcache.insert_if b ~generation:(Ffs.Bcache.generation b) 1
    (Bytes.make 4 'b');
  Alcotest.(check bool) "current-generation fill lands" true
    (Ffs.Bcache.mem b 1)

let small_churn ?(crash_at = None) () =
  {
    Load.Scenario.cs_seed = "race-churn";
    cs_rate = 2.0;
    cs_duration = 120.0;
    cs_initial_clients = 3;
    cs_join_every = 30.0;
    cs_leave_every = 45.0;
    cs_crash_at = crash_at;
    cs_sa_lifetime = Some 64;
    cs_workers = 2;
    cs_queue_depth = 16;
    cs_retry =
      Some
        {
          Oncrpc.Rpc.base_timeout = 0.5;
          backoff = 2.0;
          max_attempts = 4;
          jitter = 0.1;
        };
  }

(* Churn with retransmitting retries and a mid-run crash: the DRC's
   in-flight coalescing absorbs the retransmits and the restart wipes
   the monitors — still zero reports. *)
let test_churn_atomicity_proof () =
  let r =
    Load.Scenario.churn
      ~spec:(small_churn ~crash_at:(Some 60.0) ())
      ~racecheck:true ()
  in
  Alcotest.(check int) "crash happened" 1 r.Load.Scenario.ch_crashes;
  Alcotest.(check int) "zero race reports under churn" 0 r.Load.Scenario.ch_races

(* --- schedule exploration --------------------------------------------- *)

let storm ?tie_seed () =
  Load.Scenario.boot_storm ~seed:"race-walk" ~clients:8 ~dirs:2 ~files_per_dir:2
    ~workers:3 ~queue_depth:16 ?tie_seed ()

let test_tie_default_fifo () =
  (* With no tie seed, same-timestamp events run in spawn order — the
     pre-exploration behavior, pinned exactly. *)
  let order = ref [] in
  let s = mk_sched () in
  Alcotest.(check bool) "tie seed off by default" true (Sched.tie_seed s = None);
  for i = 0 to 9 do
    (* discfs-lint: allow races "each process appends in its own slice; the order is read after Sched.run returns" *)
    ignore (Sched.spawn_at s 1.0 (fun () -> order := i :: !order))
  done;
  Sched.run s;
  Alcotest.(check (list int)) "FIFO among ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_tie_seed_deterministic_and_perturbing () =
  let run seed =
    let order = ref [] in
    let s = mk_sched () in
    Sched.set_tie_seed s seed;
    for i = 0 to 9 do
      (* discfs-lint: allow races "each process appends in its own slice; the order is read after Sched.run returns" *)
      ignore (Sched.spawn_at s 1.0 (fun () -> order := i :: !order))
    done;
    Sched.run s;
    List.rev !order
  in
  let a = run (Some 0xfeedL) in
  Alcotest.(check (list int)) "same seed, same schedule" a (run (Some 0xfeedL));
  Alcotest.(check bool) "every tie still runs" true
    (List.sort compare a = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  (* 10! orders; nine fixed seeds all colliding with FIFO would mean
     the perturbation does nothing. *)
  let perturbed =
    List.exists
      (fun seed -> run (Some seed) <> run None)
      (List.init 9 (fun i -> Int64.of_int (0x5eed + i)))
  in
  Alcotest.(check bool) "some seed actually reorders ties" true perturbed

(* End-state equivalence across perturbed schedules. Each property
   compares a tie-seeded run's logical end state against the default
   schedule's; QCheck minimizes any divergence to a seed. *)
let nseeds = 8

let prop_walk_equivalence =
  let baseline = lazy (storm ()) in
  QCheck.Test.make ~name:"race: walk end state across 8 perturbed schedules"
    ~count:nseeds
    (QCheck.make QCheck.Gen.(map Int64.of_int small_int))
    (fun seed ->
      let b = Lazy.force baseline in
      let p = storm ~tie_seed:seed () in
      p.Load.Scenario.st_fingerprint = b.Load.Scenario.st_fingerprint
      && p.Load.Scenario.st_ops = b.Load.Scenario.st_ops
      && p.Load.Scenario.st_failed = b.Load.Scenario.st_failed)

let prop_churn_equivalence =
  (* Crashless: with no timeouts every offered op completes in every
     schedule, so even the content digests must agree. *)
  let spec = { (small_churn ()) with Load.Scenario.cs_seed = "race-churn-eq" } in
  let baseline = lazy (Load.Scenario.churn ~spec ()) in
  QCheck.Test.make ~name:"race: churn end state across 8 perturbed schedules"
    ~count:nseeds
    (QCheck.make QCheck.Gen.(map Int64.of_int small_int))
    (fun seed ->
      let b = Lazy.force baseline in
      let p = Load.Scenario.churn ~spec ~tie_seed:seed () in
      p.Load.Scenario.ch_fingerprint = b.Load.Scenario.ch_fingerprint
      && p.Load.Scenario.ch_offered = b.Load.Scenario.ch_offered
      && p.Load.Scenario.ch_offered
         = p.Load.Scenario.ch_completed + p.Load.Scenario.ch_failed)

(* --- the cluster under the checker and perturbed schedules -------------- *)

module Cluster_client = Discfs.Cluster_client
module Shard_map = Discfs.Shard_map

type cluster_run = {
  cr_fingerprint : string;
  cr_reports : string list;
  cr_accesses : int;
  cr_stat : string -> int;
}

let cluster_retry =
  { Oncrpc.Rpc.base_timeout = 0.5; backoff = 2.0; max_attempts = 4; jitter = 0.1 }

(* Four frontends, four writers (one file each, so the end state is a
   pure function of the data) and four readers homed across the
   frontends. Every file's shard gets a read replica, so owner writes
   INVALIDATE and reader picks land on replicas; mid-run a lease
   renewal, a reshard (stale maps are corrected by signed redirects)
   and a frontend crash all race the traffic. *)
let cluster_run ?tie_seed () =
  let nservers = 4 in
  let c =
    Cluster.make ~servers:nservers ~workers:3 ~queue_depth:16 ~cache_blocks:64 ~readahead:4
      ~racecheck:true ?tie_seed ~seed:"race-cluster" ()
  in
  let sched = Option.get (Cluster.sched c) in
  let attach i =
    Cluster_client.attach c ~identity:(Cluster.admin_identity c) ~uid:i ~home:(i mod nservers)
      ~retry:cluster_retry ()
  in
  let setup = attach 0 in
  let files =
    List.init 4 (fun i ->
        let fh, _, _ =
          Cluster_client.create setup ~dir:(Cluster_client.root setup) (Printf.sprintf "f%d" i) ()
        in
        fh)
  in
  let shard_of (fh : Nfs.Proto.fh) = Shard_map.shard_of (Cluster.map c) ~ino:fh.Nfs.Proto.ino in
  let owner shard = (Shard_map.shard (Cluster.map c) shard).Shard_map.owner in
  let shards = List.sort_uniq compare (List.map shard_of files) in
  List.iter
    (fun shard ->
      match Cluster.add_replica c ~shard ~server:((owner shard + 1) mod nservers) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add_replica: %s" e)
    shards;
  let writers = List.mapi (fun i fh -> (i, attach (1 + i), fh)) files in
  let readers = List.init 4 (fun i -> attach (5 + i)) in
  let base = Clock.now (Cluster.clock c) in
  List.iter
    (fun (i, cc, fh) ->
      (* discfs-lint: allow races "each writer owns its client and file end to end" *)
      Sched.spawn sched (fun () ->
          for round = 0 to 2 do
            ignore
              (Cluster_client.write cc fh ~off:(round * 4096)
                 (String.make 4096 (Char.chr (97 + (4 * i) + round))));
            Sched.sleep sched 0.05
          done))
    writers;
  List.iter
    (fun cc ->
      (* discfs-lint: allow races "each reader owns its client; the handles are immutable" *)
      Sched.spawn sched (fun () ->
          for _ = 0 to 2 do
            List.iter (fun fh -> ignore (Cluster_client.read cc fh ~off:0 ~count:4096)) files;
            Sched.sleep sched 0.04
          done))
    readers;
  ignore
    (* discfs-lint: allow races "operator actions on the cluster under test; its shared state is exactly what the armed checker and the fingerprint observe" *)
    (Sched.spawn_at sched (base +. 0.03) (fun () ->
         List.iter
           (fun shard ->
             List.iter
               (fun server -> ignore (Cluster.renew_lease c ~shard ~server))
               (Shard_map.shard (Cluster.map c) shard).Shard_map.replicas)
           shards));
  let moved = shard_of (List.hd files) in
  ignore
    (* discfs-lint: allow races "operator actions on the cluster under test; its shared state is exactly what the armed checker and the fingerprint observe" *)
    (Sched.spawn_at sched (base +. 0.06) (fun () ->
         Cluster.reshard c ~shard:moved ~owner:((owner moved + 2) mod nservers)));
  ignore
    (* discfs-lint: allow races "operator actions on the cluster under test; its shared state is exactly what the armed checker and the fingerprint observe" *)
    (Sched.spawn_at sched (base +. 0.08) (fun () -> Cluster.crash_and_restart c 1));
  Sched.run sched;
  let ctx = Option.get (Cluster.race_ctx c) in
  {
    cr_fingerprint = Load.Scenario.fs_fingerprint (Cluster.fs c);
    cr_reports = List.map Race.render_report (Race.reports ctx);
    cr_accesses = Race.accesses ctx;
    cr_stat = Simnet.Stats.get (Cluster.stats c);
  }

let test_cluster_exploration () =
  let baseline = cluster_run () in
  List.iter
    (fun (what, key) ->
      Alcotest.(check bool) (what ^ " exercised") true (baseline.cr_stat key > 0))
    [
      ("replica leases", "topo.lease.grants");
      ("owner-write INVALIDATE", "topo.lease.invalidations");
      ("signed redirects", "redirect.followed");
      ("reshard", "topo.reshards");
      ("frontend crash", "server.restarts");
    ];
  Alcotest.(check (list string)) "default schedule: zero race reports" [] baseline.cr_reports;
  List.iter
    (fun seed ->
      let r = cluster_run ~tie_seed:seed () in
      let tag = Printf.sprintf "tie seed %Ld: " seed in
      Alcotest.(check (list string)) (tag ^ "zero race reports") [] r.cr_reports;
      Alcotest.(check bool) (tag ^ "monitors saw accesses") true (r.cr_accesses > 0);
      Alcotest.(check string) (tag ^ "end state") baseline.cr_fingerprint r.cr_fingerprint)
    (List.init nseeds (fun i -> Int64.of_int (0xc1 + i)))

let suite =
  [
    ("synthetic check-then-act caught", `Quick, test_synthetic_check_then_act);
    ("duplicate fill is benign", `Quick, test_benign_same_value);
    ("wipe clears windows", `Quick, test_wipe_clears_windows);
    ("trace-span fallback labels reports", `Quick, test_annotate_fallback);
    ("null monitor is inert", `Quick, test_null_monitor);
    ("bcache generation guard", `Quick, test_bcache_generation_guard);
    ("deploy atomicity proof (DRC + bcache)", `Quick, test_deploy_atomicity_proof);
    ("churn atomicity proof (crash + retries)", `Slow, test_churn_atomicity_proof);
    ("tie order defaults to FIFO", `Quick, test_tie_default_fifo);
    ("tie seed: deterministic, perturbing", `Quick, test_tie_seed_deterministic_and_perturbing);
    QCheck_alcotest.to_alcotest prop_walk_equivalence;
    QCheck_alcotest.to_alcotest prop_churn_equivalence;
    ("cluster: 8 perturbed schedules, leases + redirects + crash", `Quick, test_cluster_exploration);
  ]
