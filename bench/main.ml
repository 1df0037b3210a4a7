(* The DisCFS benchmark harness.

   Default mode regenerates every figure of the paper's evaluation
   (§6) in simulated time — Figures 7-11 (Bonnie) and Figure 12
   (filesystem search) — plus the ablations called out in DESIGN.md
   (policy-cache sweep, credential-chain length), then runs one
   Bechamel Test.make per figure measuring the real CPU cost of the
   corresponding operation through the actual implementation.

   Usage: dune exec bench/main.exe [-- --quick | --no-bechamel | --size MB]
          dune exec bench/main.exe -- fault_sweep        (robustness sweep only)
          dune exec bench/main.exe -- latency_breakdown [--quick]
                                                         (per-layer virtual time:
                                                          cold baseline vs warm per-op
                                                          vs warm compound pipeline)
          dune exec bench/main.exe -- hotpath [--quick] [--smoke] [--json PATH]
                                                         (allocations per encode->seal
                                                          op, legacy vs arena, plus the
                                                          compound-walk effect; default
                                                          BENCH_hotpath.json)
          dune exec bench/main.exe -- cache_ablation [--quick] [--json PATH]
                                                         (caching stack cold/warm)
          dune exec bench/main.exe -- concurrency_scaling [--json PATH]
                                                         (multi-client worker pool)
          dune exec bench/main.exe -- slo [--smoke] [--json PATH]
                                                         (open-loop SLO sweep, boot storm,
                                                          long-horizon churn; default JSON
                                                          output BENCH_slo.json)
          dune exec bench/main.exe -- topology [--smoke] [--json PATH]
                                                         (server-axis scaling over the
                                                          sharded cluster; default JSON
                                                          output BENCH_topology.json)
          dune exec bench/main.exe -- race_explore [--smoke] [--seeds N] [--json PATH]
                                                         (schedule exploration: tie-seed
                                                          perturbation equivalence + the
                                                          dynamic race-checker gates;
                                                          default BENCH_race_explore.json)
          dune exec bench/main.exe -- credstore          (credential-store add / miss
                                                          query / epoch cost at 250,
                                                          1000 and 4000 credentials)
          dune exec bench/main.exe -- trace              (JSONL span dump)

   Any other argument, a second mode, a flag the chosen mode does not
   read, or a --size / --seeds below 1 exits 2 with a usage line.
*)

module Clock = Simnet.Clock
module Backend = Bonnie.Backend
module Bench = Bonnie.Bench
module Search = Bonnie.Search
module CC = Discfs.Cluster_client

let say fmt = Format.printf (fmt ^^ "@.")

(* The determinism gate every seeded, virtual-time table passes: run
   the workload, print its table, then run it again from fresh
   deployments with the same seeds. The second table must reproduce
   the first byte for byte, or the bench exits 1. Returns the first
   run. *)
let deterministic run render =
  let r = run () in
  let first = render r in
  print_string first;
  let same = String.equal first (render (run ())) in
  say "  deterministic across two runs: %s" (if same then "yes" else "NO");
  if not same then exit 1;
  r

let delta_pct a b =
  let hi = max a b and lo = min a b in
  if hi = 0.0 then 0.0 else (hi -. lo) /. hi *. 100.0

(* ------------------------------------------------------------------ *)
(* Figures 7-11: Bonnie                                                *)
(* ------------------------------------------------------------------ *)

let bonnie_figures size_mb =
  say "Running Bonnie (%d MB scratch file) on FFS, CFS-NE, DisCFS..." size_mb;
  let ffs = Bench.run ~backend:(Backend.ffs_local ()) ~size_mb () in
  let cfs = Bench.run ~backend:(Backend.cfs_ne ()) ~size_mb () in
  let dis = Bench.run ~backend:(Backend.discfs ()) ~size_mb () in
  let figure n title metric =
    let f = metric ffs and c = metric cfs and d = metric dis in
    say "@.Figure %d: Bonnie %s  [K/sec, simulated]" n title;
    say "  %-8s %10.0f" "FFS" f;
    say "  %-8s %10.0f" "CFS-NE" c;
    say "  %-8s %10.0f" "DisCFS" d;
    say "  shape: FFS fastest: %s; CFS-NE vs DisCFS: %.1f%% apart%s"
      (if f > c && f > d then "yes" else "NO")
      (delta_pct c d)
      (if delta_pct c d <= 10.0 then " (virtually identical, as in the paper)" else "")
  in
  figure 7 "Sequential Output (Char)" (fun r -> r.Bench.out_char_kps);
  figure 8 "Sequential Output (Block)" (fun r -> r.Bench.out_block_kps);
  figure 9 "Sequential Output (Rewrite)" (fun r -> r.Bench.rewrite_kps);
  figure 10 "Sequential Input (Char)" (fun r -> r.Bench.in_char_kps);
  figure 11 "Sequential Input (Block)" (fun r -> r.Bench.in_block_kps)

(* ------------------------------------------------------------------ *)
(* Figure 12: filesystem search                                        *)
(* ------------------------------------------------------------------ *)

let search_figure spec =
  say "@.Running filesystem search (%d dirs x %d files, wc over .c/.h)..."
    spec.Search.dirs spec.Search.files_per_dir;
  let run backend =
    Search.build backend spec;
    let totals, seconds = Search.run backend in
    (backend, totals, seconds)
  in
  let _, t_ffs, s_ffs = run (Backend.ffs_local ()) in
  let _, _, s_cfs = run (Backend.cfs_ne ()) in
  let b_dis, _, s_dis = run (Backend.discfs ()) in
  say "@.Figure 12: Filesystem Search  [seconds, simulated]";
  say "  (%d source files, %d lines, %d words, %d bytes counted)" t_ffs.Search.files
    t_ffs.Search.lines t_ffs.Search.words t_ffs.Search.bytes;
  say "  %-8s %10.2f" "FFS" s_ffs;
  say "  %-8s %10.2f" "CFS-NE" s_cfs;
  say "  %-8s %10.2f" "DisCFS" s_dis;
  (match b_dis.Backend.parts with
  | Some (d, _) ->
    let cache = Discfs.Server.cache (Discfs.Cluster.node_server d 0) in
    say "  policy cache (size %d): %d hits, %d misses"
      (Discfs.Policy_cache.capacity cache)
      (Discfs.Policy_cache.hits cache) (Discfs.Policy_cache.misses cache)
  | None -> ());
  say "  shape: FFS fastest: %s; CFS-NE vs DisCFS: %.1f%% apart"
    (if s_ffs < s_cfs && s_ffs < s_dis then "yes" else "NO")
    (delta_pct s_cfs s_dis)

(* ------------------------------------------------------------------ *)
(* Ablation A1: policy-cache size sweep (fig12 workload)               *)
(* ------------------------------------------------------------------ *)

let cache_sweep spec =
  say "@.Ablation A1: policy-result cache size (Figure 12 workload)";
  say "  %-8s %12s %10s %10s" "cache" "time (s)" "hits" "misses";
  List.iter
    (fun size ->
      let b = Backend.discfs ~cache_size:size () in
      Search.build b spec;
      let _, seconds = Search.run b in
      match b.Backend.parts with
      | Some (d, _) ->
        let cache = Discfs.Server.cache (Discfs.Cluster.node_server d 0) in
        say "  %-8d %12.2f %10d %10d" size seconds (Discfs.Policy_cache.hits cache)
          (Discfs.Policy_cache.misses cache)
      | None -> ())
    [ 0; 1; 8; 32; 128; 512 ]

(* ------------------------------------------------------------------ *)
(* Ablation A2: credential-chain length (real engine cost)             *)
(* ------------------------------------------------------------------ *)

let chain_sweep () =
  say "@.Ablation A2: KeyNote evaluation cost vs delegation-chain length";
  say "  (real CPU time per uncached compliance check; arbitrary-length";
  say "   chains are the feature the Exokernel's 8-level cap lacks)";
  let drbg = Dcrypto.Drbg.create ~seed:"chain-sweep" in
  let admin = Dcrypto.Dsa.generate_key drbg in
  let admin_p = Keynote.Assertion.principal_of_pub admin.Dcrypto.Dsa.pub in
  let policy =
    [ Keynote.Assertion.policy ~licensees:(Printf.sprintf "\"%s\"" admin_p) ~conditions:"true;" () ]
  in
  say "  %-6s %14s" "links" "us/query";
  List.iter
    (fun n ->
      let keys = Array.init n (fun _ -> Dcrypto.Dsa.generate_key drbg) in
      let creds = ref [] in
      let issuer = ref admin in
      Array.iter
        (fun k ->
          creds :=
            Keynote.Assertion.issue ~key:!issuer ~drbg
              ~licensees:
                (Printf.sprintf "\"%s\"" (Keynote.Assertion.principal_of_pub k.Dcrypto.Dsa.pub))
              ~conditions:"app_domain == \"DisCFS\" -> \"R\";" ()
            :: !creds;
          issuer := k)
        keys;
      let requester = Keynote.Assertion.principal_of_pub keys.(n - 1).Dcrypto.Dsa.pub in
      let query =
        {
          Keynote.Compliance.requesters = [ requester ];
          attributes = [ ("app_domain", "DisCFS") ];
          values = Discfs.Server.values;
        }
      in
      (* Sanity: the chain must actually grant R. *)
      let r = Keynote.Compliance.check ~assume_verified:true ~policy ~credentials:!creds query in
      assert (r.Keynote.Compliance.value = "R");
      let iterations = 200 in
      let t0 = Sys.time () in
      for _ = 1 to iterations do
        ignore (Keynote.Compliance.check ~assume_verified:true ~policy ~credentials:!creds query)
      done;
      let dt = (Sys.time () -. t0) /. float_of_int iterations in
      say "  %-6d %14.1f" n (dt *. 1e6))
    [ 1; 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* credstore: credential-store cost per operation vs store size        *)
(* ------------------------------------------------------------------ *)

(* Wall microseconds and allocated words per operation on one server's
   credential store, filled with one administrator -> user credential
   per user. [add] is Session.add_credential of a fresh credential,
   including its DSA signature check, which [verify] times alone on
   the same credentials; a [miss] is an uncached Session.query for a
   stored user; [epoch] is Server.credentials_changed, the bookkeeping
   every credential change pays. Each figure is the median over
   batches; words are minor-heap words (Gc.minor_words is exact where
   the other GC counters lag until a collection). stdout only. *)
let credstore () =
  say "@.Credential store: wall us and allocated words per operation vs store size";
  say "  (one admin -> user credential per user; add includes the DSA verify)";
  let d = Discfs.Cluster.make ~seed:"credstore" () in
  let server = Discfs.Cluster.node_server d 0 in
  let session = Discfs.Server.session server in
  let drbg = Dcrypto.Drbg.create ~seed:"credstore-users" in
  let users = ref [] in
  let fresh () =
    let key = Dcrypto.Dsa.generate_key drbg in
    let p = Keynote.Assertion.principal_of_pub key.Dcrypto.Dsa.pub in
    let cred =
      Discfs.Cluster.admin_issue d ~licensees:(Printf.sprintf "\"%s\"" p)
        ~conditions:
          (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";"
             (List.length !users))
        ()
    in
    users := p :: !users;
    cred
  in
  let admit cred =
    match Keynote.Session.add_credential session cred with
    | Ok () -> ()
    | Error e -> failwith ("credstore: " ^ e)
  in
  (* Median per-op (us, words) of [op] over [batches] runs of [per] calls. *)
  let measure ~batches ~per op =
    let samples =
      List.init batches (fun b ->
          let w0 = Gc.minor_words () and t0 = Monotonic_clock.now () in
          for i = 0 to per - 1 do
            op ((b * per) + i)
          done;
          let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
          (dt /. 1e3 /. float_of_int per, (Gc.minor_words () -. w0) /. float_of_int per))
    in
    let median f =
      let a = Array.of_list (List.map f samples) in
      Array.sort Float.compare a;
      a.(Array.length a / 2)
    in
    (median fst, median snd)
  in
  say "  %6s | %9s %9s | %9s | %9s %9s | %9s %9s" "creds" "add us" "words" "verify us" "miss us"
    "words" "epoch us" "words";
  List.iter
    (fun n ->
      while Keynote.Session.size session < n do
        admit (fresh ())
      done;
      let stored = Array.of_list !users in
      let batches = 9 and per = 8 in
      let extra = Array.init (batches * per) (fun _ -> fresh ()) in
      let verify_us, _ =
        measure ~batches ~per (fun i -> ignore (Keynote.Assertion.verify extra.(i)))
      in
      let add_us, add_w = measure ~batches ~per (fun i -> admit extra.(i)) in
      (* Back to exactly [n] credentials for the other columns. *)
      Array.iter
        (fun c ->
          ignore
            (Keynote.Session.remove_credential session ~fingerprint:(Keynote.Assertion.fingerprint c)))
        extra;
      let attributes = [ ("app_domain", "DisCFS"); ("HANDLE", "0") ] in
      let miss_us, miss_w =
        measure ~batches ~per:64 (fun i ->
            let requester = stored.(i * 7919 mod Array.length stored) in
            ignore (Keynote.Session.query session ~requesters:[ requester ] ~attributes))
      in
      let epoch_us, epoch_w =
        measure ~batches ~per:1000 (fun _ -> Discfs.Server.credentials_changed server)
      in
      say "  %6d | %9.1f %9.0f | %9.1f | %9.1f %9.0f | %9.3f %9.1f" n add_us add_w verify_us miss_us
        miss_w epoch_us epoch_w)
    [ 250; 1000; 4000 ]

(* ------------------------------------------------------------------ *)
(* S1: scalability — DisCFS vs key-based ACLs (WebFS style)            *)
(*                                                                     *)
(* The paper's stated future work: "attempting to rigorously quantify  *)
(* the scalability advantages offered by DisCFS". We onboard N         *)
(* external users onto one shared file in both systems and count what  *)
(* grows: administrator interventions and a-priori server state.       *)
(* ------------------------------------------------------------------ *)

let scalability () =
  say "@.Scalability S1: onboarding N external users (paper future work, §7)";
  say "  %-6s | %18s %18s | %18s %18s" "N" "DisCFS admin ops" "a-priori state(B)"
    "ACL admin ops" "a-priori state(B)";
  List.iter
    (fun n ->
      (* --- DisCFS: the owner delegates; the administrator did one
         initial delegation, ever. Server state before any user
         arrives: none. *)
      let d = Discfs.Cluster.make ~seed:"scale-discfs" () in
      let owner_key = Discfs.Cluster.new_identity d in
      let owner = CC.attach d ~identity:owner_key ~uid:100 () in
      let root = CC.root owner in
      let initial =
        Discfs.Cluster.admin_issue d
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal owner))
          ~conditions:
            (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";"
               root.Nfs.Proto.ino)
          ()
      in
      (match CC.submit_credential owner initial with
      | Ok _ -> ()
      | Error e -> failwith e);
      let fh, _, _ = CC.create owner ~dir:root "shared.txt" () in
      let discfs_admin_ops = 1 (* the single initial delegation *) in
      let discfs_apriori_state = 0 in
      (* Users are onboarded with owner-issued credentials only; no
         admin, no server preconfiguration. Exercise one user per 10
         to keep the loop honest but fast. *)
      let drbg = Discfs.Cluster.drbg d in
      for i = 0 to n - 1 do
        let u = Dcrypto.Dsa.generate_key drbg in
        let u_principal = Keynote.Assertion.principal_of_pub u.Dcrypto.Dsa.pub in
        let cred =
          Keynote.Assertion.issue ~key:owner_key ~drbg
            ~licensees:(Printf.sprintf "\"%s\"" u_principal)
            ~conditions:
              (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";"
                 fh.Nfs.Proto.ino)
            ()
        in
        if i mod 10 = 0 then begin
          let uc = CC.attach d ~identity:u ~uid:(2000 + i) () in
          (match CC.submit_credential uc cred with
          | Ok _ -> ()
          | Error e -> failwith e);
          ignore (CC.read uc fh ~off:0 ~count:1)
        end
      done;
      (* --- ACL system: each user needs registration + a grant by the
         administrator before they can do anything. *)
      let w = Webfs.Deploy.make ~seed:"scale-webfs" () in
      let ino =
        Ffs.Fs.create_file w.Webfs.Deploy.fs (Ffs.Fs.root w.Webfs.Deploy.fs) "shared.txt"
          ~perms:0o644 ~uid:0
      in
      for i = 0 to n - 1 do
        let u = Dcrypto.Dsa.generate_key w.Webfs.Deploy.drbg in
        let p = Keynote.Assertion.principal_of_pub u.Dcrypto.Dsa.pub in
        Webfs.Server.admin_register w.Webfs.Deploy.server ~principal:p;
        Webfs.Server.admin_grant w.Webfs.Deploy.server ~ino ~principal:p ~bits:4;
        ignore i
      done;
      say "  %-6d | %18d %18d | %18d %18d" n discfs_admin_ops discfs_apriori_state
        (Webfs.Server.admin_ops w.Webfs.Deploy.server)
        (Webfs.Acl.state_bytes (Webfs.Server.acl w.Webfs.Deploy.server)))
    [ 10; 100; 1000 ];
  say "  (DisCFS server state grows only lazily, with credentials actually";
  say "   submitted, and is shed-able: revocable and expirable. The ACL";
  say "   system's state and admin workload exist before any access.)"

(* ------------------------------------------------------------------ *)
(* Ablation A4: ESP transform (period-accurate 3DES vs fast cipher)    *)
(* ------------------------------------------------------------------ *)

let transform_sweep () =
  say "@.Ablation A4: ESP transform (Figure 8 workload, 2 MB)";
  say "  (3DES-CBC+HMAC-SHA1 is what 2001 IPsec really ran at ~4 MB/s;";
  say "   with it, DisCFS would NOT have matched CFS-NE - the paper's";
  say "   result presumes a transform much faster than the wire)";
  let cfs = Bench.run ~backend:(Backend.cfs_ne ()) ~size_mb:2 () in
  let fast = Bench.run ~backend:(Backend.discfs ()) ~size_mb:2 () in
  let tdes = Bench.run ~backend:(Backend.discfs ~cipher:Ipsec.Sa.Tdes_hmac_sha1 ()) ~size_mb:2 () in
  say "  %-22s %12s %14s" "system" "out-block" "vs CFS-NE";
  let row label r =
    say "  %-22s %12.0f %13.1f%%" label r.Bench.out_block_kps
      ((cfs.Bench.out_block_kps -. r.Bench.out_block_kps) /. cfs.Bench.out_block_kps *. 100.)
  in
  say "  %-22s %12.0f %14s" "CFS-NE" cfs.Bench.out_block_kps "-";
  row "DisCFS (fast ESP)" fast;
  row "DisCFS (3DES ESP)" tdes

(* ------------------------------------------------------------------ *)
(* R1: fault sweep — goodput vs network loss rate                      *)
(*                                                                     *)
(* The paper benchmarks DisCFS on a clean lab Ethernet; a *global*     *)
(* file system lives on lossy WAN paths. This sweep runs the Figure-12 *)
(* search workload with the link degraded and reports how much goodput *)
(* the at-least-once RPC layer (retransmission + duplicate-request     *)
(* cache + ESP re-sealing) preserves.                                  *)
(* ------------------------------------------------------------------ *)

let fault_sweep () =
  say "@.Fault sweep R1: Figure-12 search workload vs network loss rate";
  say "  (at-least-once RPC: retransmit w/ backoff, duplicate-request cache,";
  say "   corrupted/replayed ESP packets dropped and retried)";
  say "  %-6s %10s %14s %10s %10s %10s %10s" "loss" "time (s)" "goodput(K/s)" "retrans"
    "drops" "corrupt" "drc hits";
  let spec = { Search.dirs = 6; files_per_dir = 8; mean_file_size = 4096; seed = "fault-tree" } in
  List.iter
    (fun loss ->
      let fault = Simnet.Fault.create ~seed:(Printf.sprintf "sweep-%.2f" loss) () in
      let b = Backend.discfs ~fault () in
      (* The tree is built out-of-band on the server fs; only the
         measured walk sees the lossy link. *)
      Search.build b spec;
      Simnet.Fault.set_net fault (Simnet.Fault.lossy loss);
      let totals, seconds = Search.run b in
      let get k = Simnet.Stats.get b.Backend.stats k in
      let goodput = float_of_int totals.Search.bytes /. 1024.0 /. seconds in
      say "  %-6s %10.2f %14.0f %10d %10d %10d %10d"
        (Printf.sprintf "%.0f%%" (loss *. 100.0))
        seconds goodput (get "rpc.retransmits") (get "link.drops") (get "link.corruptions")
        (get "rpc.drc_hits"))
    [ 0.0; 0.01; 0.05; 0.10 ]

(* ------------------------------------------------------------------ *)
(* O1: latency breakdown — per-layer virtual-time shares via tracing   *)
(*                                                                     *)
(* The paper reports only end-to-end times (Figures 7-12); this        *)
(* decomposes the Figure-12 search workload by layer using the span    *)
(* self-time histograms, with the KeyNote compliance checker isolated  *)
(* on its own line. Everything is virtual time, so the table is        *)
(* byte-reproducible across runs.                                      *)
(* ------------------------------------------------------------------ *)

let layer_of_span name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Fold the "span.self.<name>" histograms of [metrics] into
   (layer, seconds, spans) rows, descending by time. *)
let breakdown_rows metrics =
  let prefix = "span.self." in
  let plen = String.length prefix in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, h) ->
      if String.length name > plen && String.sub name 0 plen = prefix then begin
        let layer = layer_of_span (String.sub name plen (String.length name - plen)) in
        let s, c = try Hashtbl.find tbl layer with Not_found -> (0.0, 0) in
        Hashtbl.replace tbl layer (s +. Trace.Metrics.sum h, c + Trace.Metrics.count h)
      end)
    (Trace.Metrics.histograms metrics);
  Hashtbl.fold (fun layer (s, c) acc -> (layer, s, c) :: acc) tbl []
  |> List.sort (fun (la, sa, _) (lb, sb, _) ->
         match compare sb sa with 0 -> compare la lb | n -> n)

type breakdown = {
  bd_label : string;
  bd_seconds : float;
  bd_files : int; (* source files the walk read — the per-op denominator *)
  bd_rows : (string * float * int) list;
}

let layer_self rows want =
  List.fold_left (fun acc (l, s, _) -> if l = want then acc +. s else acc) 0.0 rows

let layer_spans rows want =
  List.fold_left (fun acc (l, _, c) -> if l = want then acc + c else acc) 0 rows

let xdr_esp bd = layer_self bd.bd_rows "xdr" +. layer_self bd.bd_rows "esp"
let nfs_calls bd = layer_spans bd.bd_rows "nfs"

(* One configuration of the Figure-12 walk. [attr_cache] enables the
   client attr/name cache plus the server buffer cache (C1's "all
   caches" setup); [compound] selects the wire pipeline — per-op
   NFSv2 calls vs READDIRPLUS + MULTI_READ; [warm] runs the walk once
   before measuring so every enabled cache is hot. *)
let breakdown_config ~label ~attr_cache ~compound ~warm spec =
  let b =
    if attr_cache then
      Backend.discfs ~tracing:true ~cache_blocks:4096 ~cache_size:128 ~attr_cache:true
        ~attr_ttl:60.0 ~name_ttl:120.0 ~compound ()
    else Backend.discfs ~tracing:true ()
  in
  Search.build b spec;
  match b.Backend.parts with
  | None -> failwith "latency_breakdown: discfs backend has no deployment"
  | Some (d, _) ->
    Ffs.Blockdev.drop_cache (Discfs.Cluster.dev d);
    let trace = Discfs.Cluster.trace d in
    let metrics = Discfs.Cluster.metrics d in
    if warm then ignore (Search.run b);
    (* The tree build (and any warm-up pass) is setup; measure only
       the final walk. *)
    Trace.Metrics.reset metrics;
    Trace.reset trace;
    let totals, seconds = Search.run b in
    {
      bd_label = label;
      bd_seconds = seconds;
      bd_files = totals.Search.files;
      bd_rows = breakdown_rows metrics;
    }

let breakdown_configs spec =
  [
    breakdown_config ~label:"per-op pipeline, no caches, cold (paper-faithful baseline)"
      ~attr_cache:false ~compound:false ~warm:false spec;
    breakdown_config ~label:"per-op pipeline, all caches, warm" ~attr_cache:true
      ~compound:false ~warm:true spec;
    breakdown_config ~label:"compound pipeline (READDIRPLUS + MULTI_READ), all caches, warm"
      ~attr_cache:true ~compound:true ~warm:true spec;
  ]

let render_breakdown bd =
  let rows = bd.bd_rows in
  let total = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 rows in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "  -- %s --" bd.bd_label;
  line "  %-16s %12s %8s %10s" "layer" "seconds" "share" "spans";
  List.iter
    (fun (layer, s, c) ->
      line "  %-16s %12.6f %7.1f%% %10d" layer s
        (if total = 0.0 then 0.0 else s /. total *. 100.0)
        c)
    rows;
  line "  %-16s %12.6f %7.1f%% %10d" "total traced" total 100.0
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 rows);
  line "  walk wall-clock  %10.2fs  (client compute outside spans: %.2fs)" bd.bd_seconds
    (bd.bd_seconds -. total);
  Buffer.contents buf

(* The hot-path acceptance summary: baseline per-op cold walk vs the
   warm compound walk (the ISSUE-10 >=2x claims), plus the warm A/B
   that isolates what the compounds themselves buy with the caches
   held constant. Per-op numbers divide by the walk's source-file
   count — the workload is identical across configs, so the per-op
   ratio equals the total ratio and the absolute scale is readable. *)
let render_hotpath_summary bds =
  match bds with
  | [ plain; warm_perop; warm_compound ] ->
    let buf = Buffer.create 512 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let ratio a b = if b = 0.0 then 0.0 else a /. b in
    let per_file bd = xdr_esp bd /. float_of_int (max 1 bd.bd_files) *. 1e6 in
    let walk_x = ratio plain.bd_seconds warm_compound.bd_seconds in
    let xe_x = ratio (xdr_esp plain) (xdr_esp warm_compound) in
    line "  hot-path summary (baseline cold -> compound warm):";
    line "    walk:            %8.2f s  -> %8.2f s   (%.1fx; >=2x: %s)" plain.bd_seconds
      warm_compound.bd_seconds walk_x
      (if walk_x >= 2.0 then "yes" else "NO");
    line "    xdr+esp self:    %8.6f s -> %8.6f s  (%.2fx; >=2x: %s)" (xdr_esp plain)
      (xdr_esp warm_compound) xe_x
      (if xe_x >= 2.0 then "yes" else "NO");
    line "    xdr+esp per op:  %8.1f us -> %8.1f us  per source file read" (per_file plain)
      (per_file warm_compound);
    line "    NFS calls:       %8d    -> %8d" (nfs_calls plain) (nfs_calls warm_compound);
    line "  compounds alone (both warm, all caches, per-op -> compound):";
    line "    walk %.2f s -> %.2f s (%.2fx), xdr+esp %.6f s -> %.6f s (%.2fx), NFS calls %d -> %d"
      warm_perop.bd_seconds warm_compound.bd_seconds
      (ratio warm_perop.bd_seconds warm_compound.bd_seconds)
      (xdr_esp warm_perop) (xdr_esp warm_compound)
      (ratio (xdr_esp warm_perop) (xdr_esp warm_compound))
      (nfs_calls warm_perop) (nfs_calls warm_compound);
    Buffer.contents buf
  | _ -> invalid_arg "render_hotpath_summary: expected three configurations"

let latency_breakdown_once spec =
  let bds = breakdown_configs spec in
  String.concat "" (List.map render_breakdown bds) ^ render_hotpath_summary bds

let latency_breakdown spec =
  say "@.Latency breakdown O1: Figure-12 search workload, virtual time by layer";
  say "  (span self-time: time inside a layer's spans minus time in callees;";
  say "   'keynote' is the compliance-checker alone, split out of 'policy')";
  ignore (deterministic (fun () -> latency_breakdown_once spec) Fun.id)

(* ------------------------------------------------------------------ *)
(* H1: hot path — real heap allocations per encode->seal through the   *)
(* legacy Buffer/concat pipeline vs the arena pipeline, plus the O1    *)
(* walk comparison the compound procedures drive. The legacy pipeline  *)
(* is the reference in test/oracle/wire_oracle.ml (nested Buffer for   *)
(* the cred body, a Buffer for the message, string concatenation for   *)
(* the ESP packet) and must produce byte-identical wire output —       *)
(* asserted before measuring, so the A/B compares allocation profiles  *)
(* of the same bytes. Allocation counts are real (Gc.allocated_bytes), *)
(* not virtual time, but they are deterministic for a fixed compiler,  *)
(* so the double-run gate applies to them too.                         *)
(* ------------------------------------------------------------------ *)

let hotpath_micro ~iters =
  let clock = Clock.create () in
  let stats = Simnet.Stats.create () in
  let sa () =
    Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7
      ~key:(String.make 32 'k') ()
  in
  let call_args = [ ("call+seal, 40 B args", String.make 40 'a');
                    ("call+seal, 8 KB args", String.make 8192 'd') ] in
  let legacy_op sa args xid =
    Wire_oracle.seal sa (Wire_oracle.encode_call ~xid ~prog:100003 ~vers:2 ~proc:6 ~uid:1000 args)
  in
  let arena_op sa args xid =
    let a = Ipsec.Esp.arena () in
    Oncrpc.Rpc.encode_call_into (Ipsec.Esp.arena_enc a) ~xid ~prog:100003 ~vers:2 ~proc:6
      ~uid:1000 args;
    Ipsec.Esp.seal_arena sa a
  in
  (* Same key, same spi, same sequence stream: the two pipelines must
     emit identical packets before their allocation profiles mean
     anything. *)
  List.iter
    (fun (_, args) ->
      let sl = sa () and sn = sa () in
      for xid = 1 to 4 do
        if not (String.equal (legacy_op sl args xid) (arena_op sn args xid)) then
          failwith "hotpath: legacy and arena pipelines disagree on wire bytes"
      done)
    call_args;
  (* Single-op samples with an emptied minor heap: OCaml 5's
     allocation counters drift when a collection lands inside the
     measured window, so loop averages vary with loop length. One op
     never fills the minor heap, so every sample is exact, and the
     median over [iters] identical ops is byte-deterministic. *)
  let measure f =
    ignore (Sys.opaque_identity (f 0));
    let samples =
      Array.init iters (fun i ->
          Gc.full_major ();
          let before = Gc.allocated_bytes () in
          ignore (Sys.opaque_identity (f (i + 1)));
          Gc.allocated_bytes () -. before)
    in
    Array.sort compare samples;
    samples.(iters / 2)
  in
  let seal_rows =
    List.map
      (fun (label, args) ->
        let sl = sa () and sn = sa () in
        let legacy = measure (legacy_op sl args) in
        let arena = measure (arena_op sn args) in
        (label, legacy, arena))
      call_args
  in
  (* The receive side: both opens take the same sealed 8 KB packets,
     each through its own replay window, and must agree on every
     plaintext before their allocations are compared. *)
  let page = String.make 8192 'r' in
  let tx = sa () in
  let packets = Array.init (iters + 1) (fun _ -> Ipsec.Esp.seal tx page) in
  let rl = sa () and rn = sa () in
  Array.iter
    (fun p ->
      if not (String.equal (Wire_oracle.open_ rl p) (Ipsec.Esp.open_ rn p)) then
        failwith "hotpath: legacy and one-copy opens disagree on plaintext")
    (Array.sub packets 0 4);
  let rl = sa () and rn = sa () in
  let legacy = measure (fun i -> Wire_oracle.open_ rl packets.(i)) in
  let arena = measure (fun i -> Ipsec.Esp.open_ rn packets.(i)) in
  seal_rows @ [ ("open, 8 KB", legacy, arena) ]

let render_hotpath_micro rows =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "  %-24s %16s %16s %8s" "operation" "legacy (B/op)" "arena (B/op)" "ratio";
  List.iter
    (fun (label, legacy, arena) ->
      line "  %-24s %16.0f %16.0f %7.1fx" label legacy arena
        (if arena = 0.0 then 0.0 else legacy /. arena))
    rows;
  Buffer.contents buf

let hotpath_json micro bds =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"mode\": \"hotpath\",\n  \"micro\": [\n";
  List.iteri
    (fun i (label, legacy, arena) ->
      add
        "    {\"op\": %S, \"legacy_bytes_per_op\": %.0f, \"arena_bytes_per_op\": %.0f, \
         \"ratio\": %.2f}%s\n"
        label legacy arena
        (if arena = 0.0 then 0.0 else legacy /. arena)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  add "  ],\n  \"walk\": [\n";
  List.iteri
    (fun i bd ->
      add
        "    {\"config\": %S, \"walk_seconds\": %.6f, \"xdr_esp_self_seconds\": %.6f, \
         \"nfs_calls\": %d}%s\n"
        bd.bd_label bd.bd_seconds (xdr_esp bd) (nfs_calls bd)
        (if i = List.length bds - 1 then "" else ","))
    bds;
  (match bds with
  | [ plain; _; warm_compound ] ->
    add "  ],\n  \"improvement\": {\"walk\": %.2f, \"xdr_esp\": %.2f}\n"
      (if warm_compound.bd_seconds = 0.0 then 0.0
       else plain.bd_seconds /. warm_compound.bd_seconds)
      (if xdr_esp warm_compound = 0.0 then 0.0 else xdr_esp plain /. xdr_esp warm_compound)
  | _ -> add "  ]\n");
  add "}\n";
  Buffer.contents buf

let hotpath_once ~iters spec =
  let micro = hotpath_micro ~iters in
  let bds = breakdown_configs spec in
  let text =
    "  allocations per sealed request (xid/cred/verf + args, ChaCha20-Poly1305):\n"
    ^ render_hotpath_micro micro
    ^ "  Figure-12 walk (see latency_breakdown for the per-layer tables):\n"
    ^ String.concat ""
        (List.map
           (fun bd ->
             Printf.sprintf "    %-62s walk %8.2f s  xdr+esp %8.6f s  NFS calls %6d\n"
               bd.bd_label bd.bd_seconds (xdr_esp bd) (nfs_calls bd))
           bds)
    ^ render_hotpath_summary bds
  in
  (text, micro, bds)

let hotpath ?json ~smoke spec =
  say "@.Hot path H1: allocations per encode->seal op, and the compound-walk effect";
  say "  (legacy pipeline reconstructed as a byte-identical reference; allocation";
  say "   counts are real heap bytes, walk numbers are virtual seconds)";
  let iters = if smoke then 16 else 64 in
  let spec =
    if smoke then { spec with Search.dirs = 6; files_per_dir = 6 } else spec
  in
  (* Allocation counts are deterministic for a fixed compiler, and the
     walk is seeded virtual time: a second in-process run must
     reproduce every byte of the report. *)
  let _, micro, bds =
    deterministic (fun () -> hotpath_once ~iters spec) (fun (text, _, _) -> text)
  in
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (hotpath_json micro bds);
    close_out oc;
    say "  wrote %s" path

(* ------------------------------------------------------------------ *)
(* C1: cache ablation — the Figure-12 walk cold vs warm, and with      *)
(* each cache of the server-side caching stack independently disabled  *)
(* (buffer cache + readahead, KeyNote memo cache, client attr cache).  *)
(* Everything is virtual time, so the table is byte-reproducible.      *)
(* ------------------------------------------------------------------ *)

type ablation_pass = {
  ap_config : string;
  ap_pass : string; (* "cold" | "warm" *)
  ap_seconds : float;
  ap_disk_self : float;
  ap_keynote_self : float;
  ap_bcache : int * int; (* hits, misses *)
  ap_policy : int * int;
  ap_attr : int * int;
  ap_name : int * int;
}

(* One configuration: build the tree, boot the server cold (the build
   is out-of-band setup and must not pre-warm the buffer cache), then
   walk twice — pass 1 is cold, pass 2 reuses whatever each enabled
   cache retained. Counters are read from the deployment's one
   registry, which each pass resets together with the span
   histograms. *)
let ablation_config ~config ~cache_blocks ~cache_size ~attr_cache spec =
  let b =
    Backend.discfs ~tracing:true ~cache_blocks ~cache_size ~attr_cache ~attr_ttl:60.0
      ~name_ttl:120.0 ()
  in
  Search.build b spec;
  match b.Backend.parts with
  | None -> failwith "cache_ablation: discfs backend has no deployment"
  | Some (d, _) ->
    Ffs.Blockdev.drop_cache (Discfs.Cluster.dev d);
    let metrics = Discfs.Cluster.metrics d in
    let trace = Discfs.Cluster.trace d in
    let pass name =
      Trace.Metrics.reset metrics;
      Trace.reset trace;
      let _totals, seconds = Search.run b in
      let layer want =
        List.fold_left
          (fun acc (l, s, _) -> if l = want then acc +. s else acc)
          0.0 (breakdown_rows metrics)
      in
      let c k = Trace.Metrics.counter metrics k in
      {
        ap_config = config;
        ap_pass = name;
        ap_seconds = seconds;
        ap_disk_self = layer "disk";
        ap_keynote_self = layer "keynote";
        ap_bcache = (c "bcache.hits", c "bcache.misses");
        ap_policy = (c "keynote.cache_hits", c "keynote.queries");
        ap_attr = (c "cache.attr.hits", c "cache.attr.misses");
        ap_name = (c "cache.name.hits", c "cache.name.misses");
      }
    in
    let cold = pass "cold" in
    let warm = pass "warm" in
    [ cold; warm ]

let cache_ablation_rows spec =
  List.concat
    [
      ablation_config ~config:"all caches" ~cache_blocks:4096 ~cache_size:128 ~attr_cache:true
        spec;
      ablation_config ~config:"no buffer cache" ~cache_blocks:0 ~cache_size:128
        ~attr_cache:true spec;
      ablation_config ~config:"no policy cache" ~cache_blocks:4096 ~cache_size:0
        ~attr_cache:true spec;
      ablation_config ~config:"no attr cache" ~cache_blocks:4096 ~cache_size:128
        ~attr_cache:false spec;
      ablation_config ~config:"none (baseline)" ~cache_blocks:0 ~cache_size:0
        ~attr_cache:false spec;
    ]

let render_ablation rows =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "  %-16s %-5s %9s %10s %9s %13s %13s %13s %13s" "config" "pass" "walk (s)" "disk (s)"
    "keynote" "bcache h/m" "policy h/m" "attr h/m" "name h/m";
  List.iter
    (fun r ->
      let pair (h, m) = Printf.sprintf "%d/%d" h m in
      line "  %-16s %-5s %9.2f %10.6f %9.6f %13s %13s %13s %13s" r.ap_config r.ap_pass
        r.ap_seconds r.ap_disk_self r.ap_keynote_self (pair r.ap_bcache) (pair r.ap_policy)
        (pair r.ap_attr) (pair r.ap_name))
    rows;
  Buffer.contents buf

let ablation_json rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"workload\": \"figure-12 search walk\",\n  \"passes\": [\n";
  List.iteri
    (fun i r ->
      let bh, bm = r.ap_bcache
      and ph, pm = r.ap_policy
      and ah, am = r.ap_attr
      and nh, nm = r.ap_name in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"config\": %S, \"pass\": %S, \"walk_seconds\": %.6f, \"disk_self_seconds\": \
            %.6f, \"keynote_self_seconds\": %.6f, \"bcache_hits\": %d, \"bcache_misses\": %d, \
            \"policy_hits\": %d, \"policy_misses\": %d, \"attr_hits\": %d, \"attr_misses\": \
            %d, \"name_hits\": %d, \"name_misses\": %d}%s\n"
           r.ap_config r.ap_pass r.ap_seconds r.ap_disk_self r.ap_keynote_self bh bm ph pm ah am
           nh nm
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let cache_ablation ?json spec =
  say "@.Cache ablation C1: Figure-12 walk, cold vs warm, each cache toggled";
  say "  (buffer cache 4096 blocks + readahead 8, policy memo cache 128,";
  say "   client attr/name cache TTL 60/120 s; 'disk'/'keynote' are span";
  say "   self-times as in O1. The build is out-of-band; pass 1 boots cold.)";
  let rows = deterministic (fun () -> cache_ablation_rows spec) render_ablation in
  (let cold = List.find (fun r -> r.ap_config = "all caches" && r.ap_pass = "cold") rows in
   let warm = List.find (fun r -> r.ap_config = "all caches" && r.ap_pass = "warm") rows in
   let reduction =
     if cold.ap_disk_self = 0.0 then 0.0
     else (cold.ap_disk_self -. warm.ap_disk_self) /. cold.ap_disk_self *. 100.0
   in
   say "  warm vs cold disk self-time: %.6fs -> %.6fs (%.1f%% less; >=50%%: %s)"
     cold.ap_disk_self warm.ap_disk_self reduction
     (if reduction >= 50.0 then "yes" else "NO"));
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (ablation_json rows);
    close_out oc;
    say "  wrote %s" path

(* ------------------------------------------------------------------ *)
(* C2: concurrency scaling — closed-loop multi-client workload over    *)
(* the worker-pooled server (Simnet.Sched + bounded RPC queue).        *)
(* Everything is virtual time and seeded, so both tables reproduce     *)
(* byte-for-byte across runs.                                          *)
(* ------------------------------------------------------------------ *)

module Sched = Simnet.Sched

type conc_row = {
  cn_clients : int;
  cn_workers : int;
  cn_depth : int;
  cn_done : int;
  cn_failures : int;
  cn_seconds : float;
  cn_throughput : float; (* completed ops per virtual second *)
  cn_mean_lat : float;
  cn_max_lat : float;
  cn_qpeak : int;
  cn_rejects : int;
  cn_retrans : int;
  cn_mean_wait : float; (* mean virtual seconds a job sat queued *)
}

let conc_ops_per_client = 12

(* One deployment: serial setup (attach + per-client 8 KB file), then
   a closed loop per client — GETATTR / READ 2 KB / WRITE 1 KB mixed
   1:2:1 — all overlapping as scheduler processes. Timeouts are
   counted, not fatal: past the knee an undersized queue sheds load
   and the at-least-once retry absorbs it. *)
let conc_run ~clients ~workers ~depth =
  let d = Discfs.Cluster.make ~workers ~queue_depth:depth ~seed:"conc-scaling" () in
  let sched = Option.get (Discfs.Cluster.sched d) in
  let conns =
    List.init clients (fun i ->
        Load.Scenario.attach_with_file d ~uid:i (Printf.sprintf "c%d.dat" i))
  in
  let clock = Discfs.Cluster.clock d in
  let t0 = Clock.now clock in
  let done_ops = ref 0 and failures = ref 0 in
  let lat_sum = ref 0.0 and lat_max = ref 0.0 in
  List.iter
    (fun (c, fh) ->
      Sched.spawn sched (fun () ->
          for op = 0 to conc_ops_per_client - 1 do
            let t = Clock.now clock in
            (try
               Load.Scenario.mixed_op c fh op;
               incr done_ops
             with Oncrpc.Rpc.Rpc_timeout _ -> incr failures);
            let dt = Clock.now clock -. t in
            lat_sum := !lat_sum +. dt;
            if dt > !lat_max then lat_max := dt
          done))
    conns;
  Sched.run sched;
  let seconds = Clock.now clock -. t0 in
  let get k = Simnet.Stats.get (Discfs.Cluster.stats d) k in
  let wait = Trace.Metrics.histogram (Discfs.Cluster.metrics d) "rpc.queue.wait" in
  let wait_n = Trace.Metrics.count wait in
  {
    cn_clients = clients;
    cn_workers = workers;
    cn_depth = depth;
    cn_done = !done_ops;
    cn_failures = !failures;
    cn_seconds = seconds;
    cn_throughput = (if seconds = 0.0 then 0.0 else float_of_int !done_ops /. seconds);
    cn_mean_lat = (if !done_ops = 0 then 0.0 else !lat_sum /. float_of_int !done_ops);
    cn_max_lat = !lat_max;
    cn_qpeak = Oncrpc.Rpc.queue_peak (Discfs.Cluster.node_rpc d 0);
    cn_rejects = get "rpc.queue_rejects";
    cn_retrans = get "rpc.retransmits";
    cn_mean_wait =
      (if wait_n = 0 then 0.0 else Trace.Metrics.sum wait /. float_of_int wait_n);
  }

let conc_rows () =
  let client_sweep =
    List.map (fun n -> conc_run ~clients:n ~workers:4 ~depth:64) [ 1; 2; 4; 8; 16; 32 ]
  in
  let worker_sweep =
    List.map (fun w -> conc_run ~clients:16 ~workers:w ~depth:8) [ 1; 2; 4; 8 ]
  in
  (client_sweep, worker_sweep)

let render_conc (client_sweep, worker_sweep) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let header () =
    line "  %-4s %-4s %-6s %6s %5s %9s %10s %10s %10s %6s %8s %8s %10s" "N" "wrk" "depth"
      "ops" "fail" "time(s)" "ops/s" "mean(ms)" "max(ms)" "qpeak" "rejects" "retrans"
      "qwait(ms)"
  in
  let row r =
    line "  %-4d %-4d %-6d %6d %5d %9.3f %10.1f %10.3f %10.3f %6d %8d %8d %10.3f"
      r.cn_clients r.cn_workers r.cn_depth r.cn_done r.cn_failures r.cn_seconds
      r.cn_throughput (r.cn_mean_lat *. 1e3) (r.cn_max_lat *. 1e3) r.cn_qpeak r.cn_rejects
      r.cn_retrans (r.cn_mean_wait *. 1e3)
  in
  line "  -- client sweep (workers fixed at 4, queue depth 64) --";
  header ();
  List.iter row client_sweep;
  line "  -- worker sweep (16 clients, queue depth 8: past the knee the";
  line "     queue sheds load and retransmission absorbs it) --";
  header ();
  List.iter row worker_sweep;
  Buffer.contents buf

let conc_json (client_sweep, worker_sweep) =
  let buf = Buffer.create 2048 in
  let rows name rows_ =
    Buffer.add_string buf (Printf.sprintf "  %S: [\n" name);
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"clients\": %d, \"workers\": %d, \"queue_depth\": %d, \"ops_done\": %d, \
              \"failures\": %d, \"virtual_seconds\": %.6f, \"ops_per_second\": %.3f, \
              \"mean_latency_s\": %.6f, \"max_latency_s\": %.6f, \"queue_peak\": %d, \
              \"queue_rejects\": %d, \"retransmits\": %d, \"mean_queue_wait_s\": %.6f}%s\n"
             r.cn_clients r.cn_workers r.cn_depth r.cn_done r.cn_failures r.cn_seconds
             r.cn_throughput r.cn_mean_lat r.cn_max_lat r.cn_qpeak r.cn_rejects r.cn_retrans
             r.cn_mean_wait
             (if i = List.length rows_ - 1 then "" else ",")))
      rows_;
    Buffer.add_string buf "  ]"
  in
  Buffer.add_string buf
    "{\n  \"workload\": \"closed-loop GETATTR/READ/WRITE mix, 12 ops per client\",\n";
  rows "client_sweep" client_sweep;
  Buffer.add_string buf ",\n";
  rows "worker_sweep" worker_sweep;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let concurrency_scaling ?json () =
  say "@.Concurrency scaling C2: N clients in closed loop over the pooled server";
  say "  (bounded request queue, per-client FIFO fairness, workers drain";
  say "   round-robin; queue-full drops are absorbed by RPC retransmission.";
  say "   All times virtual; the table is byte-reproducible.)";
  let rows = deterministic conc_rows render_conc in
  (let by_workers = snd rows in
   match (List.hd by_workers, List.nth by_workers (List.length by_workers - 1)) with
   | w1, wn ->
     say "  worker scaling (16 clients): %.1f ops/s @1 -> %.1f ops/s @%d (speedup %.2fx)"
       w1.cn_throughput wn.cn_throughput wn.cn_workers
       (if w1.cn_throughput = 0.0 then 0.0 else wn.cn_throughput /. w1.cn_throughput));
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (conc_json rows);
    close_out oc;
    say "  wrote %s" path

(* ------------------------------------------------------------------ *)
(* T1: topology — the server axis of concurrency scaling              *)
(* ------------------------------------------------------------------ *)

module Cluster = Discfs.Cluster
module Shard_map = Discfs.Shard_map

type topo_row = {
  tp_servers : int;
  tp_clients : int;
  tp_done : int;
  tp_failures : int;
  tp_seconds : float;
  tp_throughput : float; (* aggregate completed ops per virtual second *)
  tp_mean_lat : float;
  tp_redirects : int; (* redirect.sent after the post-run reshard probe *)
  tp_followed : int;
  tp_getmaps : int;
  tp_s2s : int;
  tp_map_version : int;
}

(* One cluster: serial setup (bootstrap client creates one 8 KB file
   per client; each client then attaches HOMED ON ITS FILE'S OWNER
   with an admin credential for exactly that handle), then the same
   closed loop as conc_run, overlapped on the shared scheduler. Homing
   on the owner keeps the steady state redirect-free — each frontend
   serves its own shards over its own access link and worker pool, so
   aggregate throughput scales with the server count. After the
   measured window, a reshard probe moves client 0's shard and replays
   a few reads, exercising the signed-redirect path under the same
   deterministic clock. *)
let topo_run ~servers ~clients ~ops ~workers =
  (* The sweep runs 1 to 16 servers over one switched fabric, so the
     one-server row keeps its switch hop too. *)
  let cluster =
    Cluster.make ~servers ~workers ~queue_depth:64 ~seed:"topo-scaling"
      ~switch_latency:Simnet.Topo.default_switch_latency ()
  in
  let sched = Option.get (Cluster.sched cluster) in
  let clock = Cluster.clock cluster in
  let boot = CC.attach cluster ~identity:(Cluster.admin_identity cluster) ~uid:0 ~home:0 () in
  let conns =
    List.init clients (fun i ->
        let fh, _, _ = CC.create boot ~dir:(CC.root boot) (Printf.sprintf "t%d.dat" i) () in
        CC.write_all boot fh (String.make 8192 'x');
        let owner = Shard_map.owner (Cluster.map cluster) ~ino:fh.Nfs.Proto.ino in
        let identity = Cluster.new_identity cluster in
        let cred =
          Cluster.admin_issue cluster
            ~licensees:(Printf.sprintf "\"%s\"" (Keynote.Assertion.principal_of_pub identity.Dcrypto.Dsa.pub))
            ~conditions:
              (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RW\";"
                 fh.Nfs.Proto.ino)
            ()
        in
        let cc = CC.attach cluster ~identity ~uid:(1000 + i) ~home:owner () in
        (match CC.submit_credential cc cred with
        | Ok _ -> ()
        | Error e -> failwith ("topology: credential refused: " ^ e));
        (cc, fh))
  in
  let t0 = Clock.now clock in
  let done_ops = ref 0 and failures = ref 0 in
  let lat_sum = ref 0.0 in
  List.iter
    (fun (cc, fh) ->
      Sched.spawn sched (fun () ->
          for op = 0 to ops - 1 do
            let t = Clock.now clock in
            (try
               Load.Scenario.mixed_op cc fh op;
               incr done_ops
             with Oncrpc.Rpc.Rpc_timeout _ -> incr failures);
            lat_sum := !lat_sum +. (Clock.now clock -. t)
          done))
    conns;
  Sched.run sched;
  let seconds = Clock.now clock -. t0 in
  (* The redirect probe: move the first client's shard and replay
     reads against its now-stale cached map. *)
  (if servers > 1 then
     match conns with
     | (cc, fh) :: _ ->
       let m = Cluster.map cluster in
       let shard = Shard_map.shard_of m ~ino:fh.Nfs.Proto.ino in
       let owner = Shard_map.owner m ~ino:fh.Nfs.Proto.ino in
       Cluster.reshard cluster ~shard ~owner:((owner + 1) mod servers);
       for i = 0 to 2 do
         ignore (CC.read cc fh ~off:(i * 1024) ~count:1024)
       done
     | [] -> ());
  let get k = Simnet.Stats.get (Cluster.stats cluster) k in
  {
    tp_servers = servers;
    tp_clients = clients;
    tp_done = !done_ops;
    tp_failures = !failures;
    tp_seconds = seconds;
    tp_throughput = (if seconds = 0.0 then 0.0 else float_of_int !done_ops /. seconds);
    tp_mean_lat = (if !done_ops = 0 then 0.0 else !lat_sum /. float_of_int !done_ops);
    tp_redirects = get "redirect.sent";
    tp_followed = get "redirect.followed";
    tp_getmaps = get "topo.getmap";
    tp_s2s = get "topo.s2s_connects";
    tp_map_version = Shard_map.version (Cluster.map cluster);
  }

let topo_rows ~smoke () =
  if smoke then
    List.map (fun s -> topo_run ~servers:s ~clients:8 ~ops:4 ~workers:2) [ 1; 2 ]
  else
    let server_sweep =
      List.map (fun s -> topo_run ~servers:s ~clients:256 ~ops:12 ~workers:4) [ 1; 2; 4; 8; 16 ]
    in
    let client_sweep =
      List.map (fun n -> topo_run ~servers:8 ~clients:n ~ops:12 ~workers:4) [ 16; 64 ]
    in
    (server_sweep, client_sweep)
    |> fun (a, b) -> a @ b

let render_topo rows =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "  %-8s %-8s %7s %5s %9s %10s %10s %6s %6s %7s %5s %5s" "servers" "clients" "ops"
    "fail" "time(s)" "ops/s" "mean(ms)" "redir" "follow" "getmap" "s2s" "mapv";
  List.iter
    (fun r ->
      line "  %-8d %-8d %7d %5d %9.3f %10.1f %10.3f %6d %6d %7d %5d %5d" r.tp_servers
        r.tp_clients r.tp_done r.tp_failures r.tp_seconds r.tp_throughput
        (r.tp_mean_lat *. 1e3) r.tp_redirects r.tp_followed r.tp_getmaps r.tp_s2s
        r.tp_map_version)
    rows;
  Buffer.contents buf

let topo_json rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "{\n  \"workload\": \"closed-loop GETATTR/READ/WRITE mix, clients homed on their file's \
     shard owner, plus a post-run reshard redirect probe\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"servers\": %d, \"clients\": %d, \"ops_done\": %d, \"failures\": %d, \
            \"virtual_seconds\": %.6f, \"ops_per_second\": %.3f, \"mean_latency_s\": %.6f, \
            \"redirects_sent\": %d, \"redirects_followed\": %d, \"getmaps\": %d, \
            \"s2s_connects\": %d, \"map_version\": %d}%s\n"
           r.tp_servers r.tp_clients r.tp_done r.tp_failures r.tp_seconds r.tp_throughput
           r.tp_mean_lat r.tp_redirects r.tp_followed r.tp_getmaps r.tp_s2s r.tp_map_version
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let topology ?(smoke = false) ?json () =
  say "@.Topology T1: server axis of concurrency scaling (sharded cluster)";
  say "  (N frontends over one volume, per-host access links, namespace";
  say "   sharded by handle hash; clients homed on their shard's owner.";
  say "   All times virtual; the table is byte-reproducible.)";
  let rows = deterministic (fun () -> topo_rows ~smoke ()) render_topo in
  (let base = List.find_opt (fun r -> r.tp_servers = 1) rows in
   let eight =
     List.find_opt (fun r -> r.tp_servers = 8 && r.tp_clients = (if smoke then 8 else 256)) rows
   in
   match (base, eight) with
   | Some b, Some e when b.tp_throughput > 0.0 ->
     let speedup = e.tp_throughput /. b.tp_throughput in
     say "  aggregate speedup at 8 servers / %d clients: %.2fx (target >= 6x: %s)" e.tp_clients
       speedup
       (if speedup >= 6.0 then "yes" else "NO")
   | _ -> ());
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (topo_json rows);
    close_out oc;
    say "  wrote %s" path

(* ------------------------------------------------------------------ *)
(* O2: trace dump — JSONL spans of a small traced workload             *)
(* ------------------------------------------------------------------ *)

let trace_dump () =
  let b = Backend.discfs ~tracing:true () in
  Search.build b { Search.dirs = 2; files_per_dir = 3; mean_file_size = 1024; seed = "trace-dump" };
  match b.Backend.parts with
  | None -> failwith "trace: discfs backend has no deployment"
  | Some (d, _) ->
    let trace = Discfs.Cluster.trace d in
    Trace.reset trace;
    ignore (Search.run b);
    List.iter (fun s -> print_endline (Trace.span_to_jsonl s)) (Trace.spans trace);
    Printf.eprintf "# %d spans (%d dropped)\n" (List.length (Trace.spans trace))
      (Trace.dropped trace)

(* ------------------------------------------------------------------ *)
(* SLO: open-loop sweep, boot storm, long-horizon churn                *)
(* ------------------------------------------------------------------ *)

module Slo = Load.Slo
module Scenario = Load.Scenario

type slo_params = {
  sl_rates : float list;
  sl_duration : float;
  sl_clients : int;
  sl_storm_clients : int;
  sl_storm_dirs : int;
  sl_storm_files : int;
  sl_churn : Scenario.churn_spec;
}

let slo_params ~smoke =
  if smoke then
    {
      sl_rates = [ 40.0; 120.0 ];
      sl_duration = 1.5;
      sl_clients = 4;
      sl_storm_clients = 12;
      sl_storm_dirs = 2;
      sl_storm_files = 2;
      sl_churn =
        {
          Scenario.default_churn with
          Scenario.cs_rate = 1.0;
          cs_duration = 120.0;
          cs_initial_clients = 3;
          cs_join_every = 30.0;
          cs_leave_every = 45.0;
          cs_crash_at = Some 60.0;
          cs_sa_lifetime = Some 16;
          cs_retry =
            Some { Oncrpc.Rpc.base_timeout = 0.4; backoff = 2.0; max_attempts = 5; jitter = 0.1 };
        };
    }
  else
    {
      sl_rates = [ 50.0; 100.0; 200.0; 300.0; 400.0; 600.0 ];
      sl_duration = 10.0;
      sl_clients = 8;
      sl_storm_clients = 200;
      sl_storm_dirs = 4;
      sl_storm_files = 4;
      sl_churn = Scenario.default_churn;
    }

let slo_run p =
  let points, knee =
    Scenario.sweep ~clients:p.sl_clients ~duration:p.sl_duration ~rates:p.sl_rates ()
  in
  let storm =
    Scenario.boot_storm ~clients:p.sl_storm_clients ~dirs:p.sl_storm_dirs
      ~files_per_dir:p.sl_storm_files ()
  in
  let churn = Scenario.churn ~spec:p.sl_churn () in
  (points, knee, storm, churn)

let render_slo p (points, knee, storm, churn) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "  -- latency vs offered load (%d clients, Poisson arrivals, %gs horizon) --"
    p.sl_clients p.sl_duration;
  line "  %-9s %7s %5s %5s %9s %9s %6s %8s %8s  %s" "offered/s" "ops" "done" "fail"
    "span(s)" "ach/s" "qpeak" "rejects" "retrans" "latency";
  List.iter
    (fun sp ->
      line "  %-9g %7d %5d %5d %9.3f %9.1f %6d %8d %8d  %s" sp.Scenario.sp_rate
        sp.Scenario.sp_offered sp.Scenario.sp_completed sp.Scenario.sp_failed
        sp.Scenario.sp_makespan sp.Scenario.sp_throughput sp.Scenario.sp_qpeak
        sp.Scenario.sp_rejects sp.Scenario.sp_retrans
        (Slo.render sp.Scenario.sp_summary))
    points;
  (match knee with
  | Some i ->
    let sp = List.nth points i in
    line "  knee: %g offered ops/s sustained (achieved %.1f, zero failures)"
      sp.Scenario.sp_rate sp.Scenario.sp_throughput
  | None -> line "  knee: not sustained even at the lowest offered rate");
  line "  -- boot storm: %d clients walk one %d-file read-only subtree at once --"
    storm.Scenario.st_clients storm.Scenario.st_tree_files;
  line "  ops=%d fail=%d makespan=%.3fs spread=%.3fs qpeak=%d rejects=%d retrans=%d"
    storm.Scenario.st_ops storm.Scenario.st_failed storm.Scenario.st_makespan
    storm.Scenario.st_spread storm.Scenario.st_qpeak storm.Scenario.st_rejects
    storm.Scenario.st_retrans;
  line "  per-op latency: %s" (Slo.render storm.Scenario.st_summary);
  line "  bcache %d/%d hits, policy memo %d hits / %d cold evaluations"
    storm.Scenario.st_bcache_hits
    (storm.Scenario.st_bcache_hits + storm.Scenario.st_bcache_misses)
    storm.Scenario.st_policy_hits storm.Scenario.st_policy_queries;
  line "  -- churn: %gs horizon at %g ops/s, joins/leaves/crash/rekeys under load --"
    p.sl_churn.Scenario.cs_duration p.sl_churn.Scenario.cs_rate;
  line
    "  offered=%d completed=%d failed=%d joins=%d leaves=%d crashes=%d reattaches=%d \
     rekeys=%d active_at_end=%d"
    churn.Scenario.ch_offered churn.Scenario.ch_completed churn.Scenario.ch_failed
    churn.Scenario.ch_joins churn.Scenario.ch_leaves churn.Scenario.ch_crashes
    churn.Scenario.ch_reattaches churn.Scenario.ch_rekeys churn.Scenario.ch_final_active;
  line "  latency: %s" (Slo.render churn.Scenario.ch_summary);
  Buffer.contents buf

let slo_json p (points, knee, storm, churn) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add
    "  \"workload\": \"open-loop Poisson arrivals, 1:2:1 GETATTR/READ/WRITE mix over \
     pooled DisCFS server\",\n";
  add "  \"sweep\": {\n";
  add "    \"clients\": %d, \"workers\": 4, \"queue_depth\": 64, \"duration_s\": %.9g,\n"
    p.sl_clients p.sl_duration;
  add "    \"points\": [\n";
  let n = List.length points in
  List.iteri
    (fun i sp ->
      add
        "      {\"offered_rate\": %.9g, \"offered\": %d, \"completed\": %d, \"failed\": \
         %d, \"makespan_s\": %.9g, \"achieved_rate\": %.9g, \"queue_peak\": %d, \
         \"queue_rejects\": %d, \"retransmits\": %d, \"latency\": %s}%s\n"
        sp.Scenario.sp_rate sp.Scenario.sp_offered sp.Scenario.sp_completed
        sp.Scenario.sp_failed sp.Scenario.sp_makespan sp.Scenario.sp_throughput
        sp.Scenario.sp_qpeak sp.Scenario.sp_rejects sp.Scenario.sp_retrans
        (Slo.summary_json sp.Scenario.sp_summary)
        (if i = n - 1 then "" else ","))
    points;
  add "    ],\n";
  (match knee with
  | Some i -> add "    \"knee_offered_rate\": %.9g\n" (List.nth points i).Scenario.sp_rate
  | None -> add "    \"knee_offered_rate\": null\n");
  add "  },\n";
  add "  \"boot_storm\": {\n";
  add "    \"clients\": %d, \"tree_files\": %d, \"ops\": %d, \"failed\": %d,\n"
    storm.Scenario.st_clients storm.Scenario.st_tree_files storm.Scenario.st_ops
    storm.Scenario.st_failed;
  add "    \"makespan_s\": %.9g, \"finish_spread_s\": %.9g,\n" storm.Scenario.st_makespan
    storm.Scenario.st_spread;
  add "    \"bcache_hits\": %d, \"bcache_misses\": %d, \"policy_hits\": %d, \
       \"policy_queries\": %d,\n"
    storm.Scenario.st_bcache_hits storm.Scenario.st_bcache_misses
    storm.Scenario.st_policy_hits storm.Scenario.st_policy_queries;
  add "    \"queue_peak\": %d, \"queue_rejects\": %d, \"retransmits\": %d,\n"
    storm.Scenario.st_qpeak storm.Scenario.st_rejects storm.Scenario.st_retrans;
  add "    \"latency\": %s\n" (Slo.summary_json storm.Scenario.st_summary);
  add "  },\n";
  add "  \"churn\": {\n";
  add "    \"rate\": %.9g, \"duration_s\": %.9g, \"offered\": %d, \"completed\": %d, \
       \"failed\": %d,\n"
    p.sl_churn.Scenario.cs_rate p.sl_churn.Scenario.cs_duration churn.Scenario.ch_offered
    churn.Scenario.ch_completed churn.Scenario.ch_failed;
  add "    \"joins\": %d, \"leaves\": %d, \"crashes\": %d, \"reattaches\": %d, \
       \"rekeys\": %d, \"active_at_end\": %d,\n"
    churn.Scenario.ch_joins churn.Scenario.ch_leaves churn.Scenario.ch_crashes
    churn.Scenario.ch_reattaches churn.Scenario.ch_rekeys churn.Scenario.ch_final_active;
  add "    \"client_id_allocations\": %d, \"executed_pool_jobs\": %d,\n"
    (List.length churn.Scenario.ch_client_ids)
    churn.Scenario.ch_executed;
  add "    \"latency\": %s\n" (Slo.summary_json churn.Scenario.ch_summary);
  add "  }\n}\n";
  Buffer.contents buf

let slo_bench ?json ~smoke () =
  say "@.SLO: open-loop load generation, percentile latency, knee location";
  say "  (arrivals fire on the virtual clock regardless of completions;";
  say "   latency is arrival-to-completion, so queueing counts. All";
  say "   virtual time, seeded: the tables are byte-reproducible.)";
  let p = slo_params ~smoke in
  let results = deterministic (fun () -> slo_run p) (render_slo p) in
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (slo_json p results);
    close_out oc;
    say "  wrote %s" path

(* ------------------------------------------------------------------ *)
(* race_explore: schedule perturbation + dynamic-checker gates         *)
(* ------------------------------------------------------------------ *)

(* Each scenario runs once on the default schedule, once more to pin
   determinism, once with the happens-before checker armed (which must
   leave every virtual-time observable byte-identical — the monitors
   record, they never charge cost or yield), and then once per tie
   seed; every perturbed schedule must end with the same logical
   filesystem fingerprint and op accounting. Any divergence is already
   minimized: the harness names the seed and exits non-zero. *)

type explored = {
  ex_observable : string;  (** virtual-time observables, races excluded *)
  ex_fingerprint : string;
  ex_races : int;
}

let race_explore_scenarios ~smoke =
  let storm ~seed ~clients ~dirs ~files_per_dir ?tie_seed ?(racecheck = false)
      () =
    let r =
      Load.Scenario.boot_storm ~seed ~clients ~dirs ~files_per_dir ~workers:4
        ~queue_depth:32 ?tie_seed ~racecheck ()
    in
    {
      ex_observable =
        Printf.sprintf "ops=%d failed=%d makespan=%.6f spread=%.6f qpeak=%d bc=%d/%d fp=%s"
          r.Load.Scenario.st_ops r.Load.Scenario.st_failed
          r.Load.Scenario.st_makespan r.Load.Scenario.st_spread
          r.Load.Scenario.st_qpeak r.Load.Scenario.st_bcache_hits
          r.Load.Scenario.st_bcache_misses r.Load.Scenario.st_fingerprint;
      ex_fingerprint = r.Load.Scenario.st_fingerprint;
      ex_races = r.Load.Scenario.st_races;
    }
  in
  let churn ?tie_seed ?(racecheck = false) () =
    let spec =
      {
        Load.Scenario.default_churn with
        Load.Scenario.cs_seed = "race-explore-churn";
        cs_rate = 2.0;
        cs_duration = (if smoke then 120.0 else 600.0);
        cs_initial_clients = 3;
        cs_join_every = 30.0;
        cs_leave_every = 45.0;
        (* crashless: without timeouts, every offered op completes in
           every schedule, so content digests must agree exactly *)
        cs_crash_at = None;
        cs_workers = 2;
        cs_queue_depth = 16;
      }
    in
    let r = Load.Scenario.churn ~spec ?tie_seed ~racecheck () in
    {
      ex_observable =
        Printf.sprintf
          "offered=%d completed=%d failed=%d joins=%d leaves=%d rekeys=%d executed=%d fp=%s"
          r.Load.Scenario.ch_offered r.Load.Scenario.ch_completed
          r.Load.Scenario.ch_failed r.Load.Scenario.ch_joins
          r.Load.Scenario.ch_leaves r.Load.Scenario.ch_rekeys
          r.Load.Scenario.ch_executed r.Load.Scenario.ch_fingerprint;
      ex_fingerprint = r.Load.Scenario.ch_fingerprint;
      ex_races = r.Load.Scenario.ch_races;
    }
  in
  [
    (* the Figure-12-style read walk: a small convoy over the shared
       tree, LOOKUP/READDIR/GETATTR/READ *)
    ( "walk",
      fun ?tie_seed ?racecheck () ->
        storm ~seed:"race-explore-walk"
          ~clients:(if smoke then 6 else 16)
          ~dirs:3 ~files_per_dir:3 ?tie_seed ?racecheck () );
    ( "boot_storm",
      fun ?tie_seed ?racecheck () ->
        storm ~seed:"race-explore-storm"
          ~clients:(if smoke then 16 else 64)
          ~dirs:4 ~files_per_dir:4 ?tie_seed ?racecheck () );
    ("churn", churn);
  ]

let race_explore ?json ~smoke ~nseeds () =
  say "@.Race exploration: %d tie-seed perturbations per scenario, plus the" nseeds;
  say "  dynamic-checker gates (zero reports; instrumentation invisible in";
  say "  every virtual-time observable, armed or not).";
  let seeds = List.init nseeds (fun i -> Int64.of_int ((i + 1) * 1000003)) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"seeds\": ";
  Buffer.add_string buf (string_of_int nseeds);
  Buffer.add_string buf ",\n  \"scenarios\": [\n";
  let failures = ref 0 in
  let scenarios = race_explore_scenarios ~smoke in
  List.iteri
    (fun si
         ((name, run) :
           string * (?tie_seed:int64 -> ?racecheck:bool -> unit -> explored)) ->
      let base = run () in
      let again = run () in
      let det = String.equal base.ex_observable again.ex_observable in
      if not det then begin
        say "  %-10s NOT deterministic across two default runs" name;
        incr failures
      end;
      let armed = run ~racecheck:true () in
      let invisible = String.equal base.ex_observable armed.ex_observable in
      if not invisible then begin
        say "  %-10s checker alters virtual-time behavior" name;
        incr failures
      end;
      if armed.ex_races <> 0 then begin
        say "  %-10s %d race report(s) — atomicity refuted" name armed.ex_races;
        incr failures
      end;
      let diverged =
        List.filter
          (fun s ->
            let p = run ~tie_seed:s () in
            not (String.equal p.ex_fingerprint base.ex_fingerprint))
          seeds
      in
      List.iter
        (fun s -> say "  %-10s DIVERGES under tie seed %Ld" name s)
        diverged;
      if diverged <> [] then incr failures;
      say "  %-10s schedules=%d/%d identical  deterministic=%s  races=%d  invisible=%s"
        name
        (nseeds - List.length diverged)
        nseeds
        (if det then "yes" else "NO")
        armed.ex_races
        (if invisible then "yes" else "NO");
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"fingerprint\": %S, \"identical_schedules\": %d, \
            \"deterministic\": %b, \"races\": %d, \"checker_invisible\": %b}%s\n"
           name base.ex_fingerprint
           (nseeds - List.length diverged)
           det armed.ex_races invisible
           (if si = List.length scenarios - 1 then "" else ","))
      )
    scenarios;
  Buffer.add_string buf "  ]\n}\n";
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    say "  wrote %s" path);
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel: one Test.make per figure + micro-costs (A3)               *)
(* ------------------------------------------------------------------ *)

let chunk = String.init 8192 (fun i -> Char.chr (32 + (i mod 95)))

(* Per-figure unit operations through the real DisCFS stack. *)
let fig_tests () =
  let b = Backend.discfs () in
  let file = b.Backend.create b.Backend.root "bech.scratch" in
  let slots = 256 in
  for i = 0 to slots - 1 do
    b.Backend.write file ~off:(i * 8192) chunk
  done;
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod slots;
    !cursor * 8192
  in
  let char_cost () =
    Clock.advance b.Backend.clock (8192.0 *. b.Backend.cost.Simnet.Cost.char_io)
  in
  let search_b = Backend.discfs () in
  Search.build search_b
    { Search.dirs = 4; files_per_dir = 6; mean_file_size = 4096; seed = "bech-tree" };
  let tree_files =
    List.concat_map
      (fun dir ->
        let dh = search_b.Backend.lookup search_b.Backend.root dir in
        List.filter_map
          (fun name -> if Search.is_source name then Some (dh, name) else None)
          (search_b.Backend.readdir dh))
      (search_b.Backend.readdir search_b.Backend.root)
  in
  let tree = Array.of_list tree_files in
  let tcursor = ref 0 in
  let open Bechamel in
  [
    Test.make ~name:"fig7/out-char-8k" (Staged.stage (fun () ->
        char_cost ();
        b.Backend.write file ~off:(next ()) chunk));
    Test.make ~name:"fig8/out-block-8k" (Staged.stage (fun () ->
        b.Backend.write file ~off:(next ()) chunk));
    Test.make ~name:"fig9/rewrite-8k" (Staged.stage (fun () ->
        let off = next () in
        let data = b.Backend.read file ~off ~len:8192 in
        ignore (Sys.opaque_identity data);
        b.Backend.write file ~off chunk));
    Test.make ~name:"fig10/in-char-8k" (Staged.stage (fun () ->
        let data = b.Backend.read file ~off:(next ()) ~len:8192 in
        char_cost ();
        ignore (Sys.opaque_identity data)));
    Test.make ~name:"fig11/in-block-8k" (Staged.stage (fun () ->
        ignore (Sys.opaque_identity (b.Backend.read file ~off:(next ()) ~len:8192))));
    Test.make ~name:"fig12/wc-one-file" (Staged.stage (fun () ->
        tcursor := (!tcursor + 1) mod Array.length tree;
        let dh, name = tree.(!tcursor) in
        let h = search_b.Backend.lookup dh name in
        let data = search_b.Backend.read h ~off:0 ~len:8192 in
        ignore (Sys.opaque_identity data)));
  ]

let micro_tests () =
  let drbg = Dcrypto.Drbg.create ~seed:"micro" in
  let key = Dcrypto.Dsa.generate_key drbg in
  let msg = "micro-benchmark message" in
  let signature = Dcrypto.Dsa.sign ~key drbg msg in
  let clock = Clock.create () in
  let stats = Simnet.Stats.create () in
  let tx =
    Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:9 ~key:(String.make 32 'k') ()
  in
  let d = Discfs.Cluster.make ~seed:"micro-deploy" ~cache_size:128 () in
  let bob = Discfs.Cluster.new_identity d in
  let client = CC.attach d ~identity:bob () in
  let root = CC.root client in
  (match
     CC.submit_credential client
       (Discfs.Cluster.admin_issue d
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal client))
          ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ())
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let peer = CC.principal client in
  let server = Discfs.Cluster.node_server d 0 in
  let cache = Discfs.Server.cache server in
  (* Warm the cache for the hot-path test. *)
  ignore (Discfs.Server.query_level server ~peer ~ino:root.Nfs.Proto.ino);
  let link = Discfs.Cluster.node_link d 0 in
  let ike_drbg = Dcrypto.Drbg.create ~seed:"micro-ike" in
  let responder = Dcrypto.Dsa.generate_key ike_drbg in
  let open Bechamel in
  [
    Test.make ~name:"micro/sha1-8k" (Staged.stage (fun () ->
        ignore (Sys.opaque_identity (Dcrypto.Sha1.digest chunk))));
    Test.make ~name:"micro/dsa-sign" (Staged.stage (fun () ->
        ignore (Sys.opaque_identity (Dcrypto.Dsa.sign ~key drbg msg))));
    Test.make ~name:"micro/dsa-verify" (Staged.stage (fun () ->
        ignore (Sys.opaque_identity (Dcrypto.Dsa.verify ~key:key.Dcrypto.Dsa.pub msg signature))));
    Test.make ~name:"micro/esp-seal-8k" (Staged.stage (fun () ->
        ignore (Sys.opaque_identity (Ipsec.Esp.seal tx chunk))));
    Test.make ~name:"micro/keynote-hot(cached)" (Staged.stage (fun () ->
        ignore
          (Sys.opaque_identity (Discfs.Server.query_level server ~peer ~ino:root.Nfs.Proto.ino))));
    Test.make ~name:"micro/keynote-cold" (Staged.stage (fun () ->
        Discfs.Policy_cache.flush cache;
        ignore
          (Sys.opaque_identity (Discfs.Server.query_level server ~peer ~ino:root.Nfs.Proto.ino))));
    Test.make ~name:"micro/ike-handshake" (Staged.stage (fun () ->
        ignore
          (Sys.opaque_identity
             (Ipsec.Ike.establish ~link ~drbg:ike_drbg ~initiator:key ~responder ()))));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  say "@.Bechamel (real CPU time per operation through the actual implementation):";
  let tests = Test.make_grouped ~name:"discfs" (fig_tests () @ micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  say "  %-36s %16s" "operation" "ns/run";
  List.iter
    (fun (name, ols) ->
      let est = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      say "  %-36s %16.0f" name est)
    rows

(* ------------------------------------------------------------------ *)

(* What the command line asked for. [json] is already resolved
   against the mode's default output. *)
type args = {
  quick : bool;
  no_bechamel : bool;
  smoke : bool;
  size : int option;
  seeds : int option;
  json : string option;
}

(* One row per mode: the flags it reads (any other flag is an error),
   where its JSON goes when no --json is given, and how to run it. The
   unnamed row is the default: every figure 7-12 plus the ablations. *)
type mode = {
  name : string;
  flags : string list;
  default_json : string option;
  run : args -> unit;
}

let spec_of a =
  if a.quick then { Search.default_spec with Search.dirs = 12; files_per_dir = 10 }
  else Search.default_spec

let figures a =
  let spec = spec_of a in
  bonnie_figures (Option.value a.size ~default:(if a.quick then 4 else 16));
  search_figure spec;
  cache_sweep { spec with Search.dirs = max 4 (spec.Search.dirs / 2) };
  chain_sweep ();
  scalability ();
  transform_sweep ();
  fault_sweep ();
  if not a.no_bechamel then run_bechamel ()

let default_mode =
  { name = ""; flags = [ "--quick"; "--no-bechamel"; "--size" ]; default_json = None; run = figures }

let modes =
  [
    { name = "fault_sweep"; flags = []; default_json = None; run = (fun _ -> fault_sweep ()) };
    { name = "latency_breakdown"; flags = [ "--quick" ]; default_json = None;
      run = (fun a -> latency_breakdown (spec_of a)) };
    { name = "hotpath"; flags = [ "--quick"; "--smoke"; "--json" ];
      default_json = Some "BENCH_hotpath.json";
      run = (fun a -> hotpath ?json:a.json ~smoke:a.smoke (spec_of a)) };
    { name = "cache_ablation"; flags = [ "--quick"; "--json" ]; default_json = None;
      run = (fun a -> cache_ablation ?json:a.json (spec_of a)) };
    { name = "concurrency_scaling"; flags = [ "--json" ]; default_json = None;
      run = (fun a -> concurrency_scaling ?json:a.json ()) };
    { name = "slo"; flags = [ "--smoke"; "--json" ]; default_json = Some "BENCH_slo.json";
      run = (fun a -> slo_bench ?json:a.json ~smoke:a.smoke ()) };
    { name = "topology"; flags = [ "--smoke"; "--json" ];
      default_json = Some "BENCH_topology.json";
      run = (fun a -> topology ?json:a.json ~smoke:a.smoke ()) };
    { name = "race_explore"; flags = [ "--smoke"; "--seeds"; "--json" ];
      default_json = Some "BENCH_race_explore.json";
      run =
        (fun a ->
          race_explore ?json:a.json ~smoke:a.smoke ~nseeds:(Option.value a.seeds ~default:8) ())
    };
    { name = "credstore"; flags = []; default_json = None; run = (fun _ -> credstore ()) };
    (* stdout is the JSONL span dump alone *)
    { name = "trace"; flags = []; default_json = None; run = (fun _ -> trace_dump ()) };
  ]

let switches = [ "--quick"; "--no-bechamel"; "--smoke" ]
let int_options = [ "--size"; "--seeds" ]

let usage =
  "usage: dune exec bench/main.exe -- [MODE] [--quick] [--no-bechamel] [--smoke] [--size MB] \
   [--seeds N] [--json PATH]\nmodes: " ^ String.concat " " (List.map (fun m -> m.name) modes)

(* Every argument must be a known switch, an option with its value, or
   at most one mode, and the mode must read every flag given; anything
   else exits 2 before any work starts, rather than falling through to
   the full figure suite or being silently ignored. *)
let check_args args =
  let reject fmt =
    Printf.ksprintf (fun msg -> prerr_endline ("bench: " ^ msg); prerr_endline usage; exit 2) fmt
  in
  let rec go mode flags a = function
    | [] -> (mode, flags, a)
    | s :: rest when List.mem s switches ->
      let a =
        match s with
        | "--quick" -> { a with quick = true }
        | "--no-bechamel" -> { a with no_bechamel = true }
        | _ -> { a with smoke = true }
      in
      go mode (s :: flags) a rest
    | o :: v :: rest when List.mem o int_options -> (
      match int_of_string_opt v with
      | None -> reject "%s expects an integer, got %S" o v
      | Some n when n < 1 -> reject "%s must be at least 1, got %d" o n
      | Some n ->
        let a = if o = "--size" then { a with size = Some n } else { a with seeds = Some n } in
        go mode (o :: flags) a rest)
    | "--json" :: path :: rest -> go mode ("--json" :: flags) { a with json = Some path } rest
    | o :: [] when o = "--json" || List.mem o int_options -> reject "%s expects a value" o
    | m :: rest -> (
      match List.find_opt (fun md -> md.name = m) modes with
      | Some md ->
        Option.iter (fun prev -> reject "two modes given: %s and %s" prev.name m) mode;
        go (Some md) flags a rest
      | None -> reject "unknown argument %S" m)
  in
  let none =
    { quick = false; no_bechamel = false; smoke = false; size = None; seeds = None; json = None }
  in
  let mode, flags, a = go None [] none args in
  let mode = Option.value mode ~default:default_mode in
  List.iter
    (fun f ->
      if not (List.mem f mode.flags) then
        reject "%s does not read %s"
          (if mode.name = "" then "the default figure suite" else mode.name)
          f)
    (List.rev flags);
  (mode, { a with json = (if a.json = None then mode.default_json else a.json) })

let () =
  let mode, a = check_args (List.tl (Array.to_list Sys.argv)) in
  if mode.name = "trace" then mode.run a
  else begin
    say "DisCFS evaluation harness (virtual 2001-era testbed: 450 MHz server,";
    say "100 Mbps Ethernet, Quantum Fireball-class disk; see DESIGN.md)";
    say "";
    mode.run a;
    say "@.done."
  end
