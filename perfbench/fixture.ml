(* What every workload shares: the cluster under test, files built
   directly on its volume, user onboarding through the cluster client,
   and the exact counters read before and after the measured window.
   Workloads call only Cluster and Cluster_client; the layer probes
   live in probes.ml. *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Fs = Ffs.Fs
module Dsa = Dcrypto.Dsa

let servers = 4
let workers = 4

(* The cluster's own seed is fixed: the workload seed reaches the
   system only through the inputs the workloads generate from it. *)
let make_cluster ~tracing ~cache_blocks =
  Cluster.make ~servers ~workers ~cache_blocks ~tracing ~seed:"perfbench-cluster" ()

let sched c = Option.get (Cluster.sched c)
let vnow c = Simnet.Clock.now (Cluster.clock c)

(* Inputs derived from the workload seed: a DRBG for user keys and a
   PRNG for sizes, contents and picks, each labelled per workload. *)
let drbg ~workload ~seed = Dcrypto.Drbg.create ~seed:(Printf.sprintf "perfbench/%s/%d" workload seed)
let rng ~workload ~seed = Random.State.make [| Hashtbl.hash workload; seed |]

let principal (k : Dsa.private_key) = Keynote.Assertion.principal_of_pub k.Dsa.pub
let licensee k = Printf.sprintf "\"%s\"" (principal k)

let grant ~inos rights =
  Printf.sprintf "(app_domain == \"DisCFS\") && (%s) -> \"%s\";"
    (String.concat " || " (List.map (Printf.sprintf "HANDLE == \"%d\"") inos))
    rights

let mkdir fs ~dir name = Fs.mkdir fs dir name ~perms:0o755 ~uid:0

let add_file fs ~dir name content : Nfs.Proto.fh =
  let ino = Fs.create_file fs dir name ~perms:0o644 ~uid:0 in
  Fs.write fs ino ~off:0 content;
  { Nfs.Proto.ino; gen = Fs.generation fs ino }

let owner c (fh : Nfs.Proto.fh) = Discfs.Shard_map.owner (Cluster.map c) ~ino:fh.Nfs.Proto.ino

(* One user's onboarding up to a usable connection: key generation,
   credential issue, IKE attach to the home frontend, submission. Each
   step is a wall-time span when [spans] is given. *)
let onboard ?spans c ~drbg ~uid ~home ~issue =
  let identity = Meter.span spans "keygen" (fun () -> Dsa.generate_key drbg) in
  let creds = Meter.span spans "issue" (fun () -> issue identity) in
  let cc = Meter.span spans "attach" (fun () -> CC.attach c ~identity ~uid ~home ()) in
  Meter.span spans "submit" (fun () ->
      List.iter
        (fun cred ->
          match CC.submit_credential cc cred with
          | Ok _ -> ()
          | Error e -> Report.fail "uid %d: valid credential refused: %s" uid e)
        creds);
  (cc, creds)

let is_denied f =
  match f () with
  | _ -> false
  | exception Nfs.Proto.Nfs_error code -> code = Nfs.Proto.nfserr_acces

(* --- exact counters --------------------------------------------------- *)

let counter_names =
  [ "rpc.calls"; "esp.packets"; "link.bytes"; "ike.handshakes"; "topo.lazy_attaches";
    "discfs.submissions"; "keynote.queries"; "keynote.cache_hits"; "bcache.hits";
    "bcache.misses"; "disk.seeks"; "disk.writes"; "topo.lease.invalidations";
    "redirect.followed"; "rpc.retransmits"; "rpc.queue_rejects"; "sched.events" ]

let snapshot c =
  List.map
    (fun k ->
      ( k,
        if k = "sched.events" then Simnet.Sched.events_run (sched c)
        else Simnet.Stats.get (Cluster.stats c) k ))
    counter_names

let histogram_values c =
  let hists = Trace.Metrics.histograms (Cluster.metrics c) in
  let quantile name p =
    match List.assoc_opt name hists with
    | None -> 0.
    | Some h -> (
      match Trace.Metrics.quantile_est h p with
      | Trace.Metrics.Q_at v | Trace.Metrics.Q_ge v -> v
      | Trace.Metrics.Q_empty -> 0.)
  in
  let self_time spans =
    List.fold_left
      (fun acc n ->
        match List.assoc_opt ("span.self." ^ n) hists with
        | Some h -> acc +. Trace.Metrics.sum h
        | None -> acc)
      0. spans
  in
  [ ("rpc.queue_wait_p99", quantile "rpc.queue.wait" 0.99);
    ("rpc.queue_service_p50", quantile "rpc.queue.service" 0.5);
    ("vself.ike", self_time [ "ike.handshake"; "ike.rekey" ]);
    ("vself.cred", self_time [ "cred.issue"; "cred.verify" ]);
    ("vself.keynote", self_time [ "keynote.check"; "keynote.compliance" ]);
    ("vself.net", self_time [ "net.transit" ]) ]

(* --- the two windows ---------------------------------------------------- *)

type opened = {
  t0 : int64;
  gc0 : Meter.gc_mark;
  v0 : float;
  before : (string * int) list;
  mutable timed_ops : int;
}

(* Both windows open at the first timed op. Opening clears the
   cluster's metrics registry (only observers read it) and snapshots
   the counters. *)
let open_windows c =
  Trace.Metrics.reset (Cluster.metrics c);
  { t0 = Meter.now_ns (); gc0 = Meter.gc_mark (); v0 = vnow c; before = snapshot c; timed_ops = 0 }

(* Called as each timed op completes. *)
let completed w = w.timed_ops <- w.timed_ops + 1

let close_window c w ~vlat ~file_bytes : Outcome.window =
  let gc = Meter.gc_mark () in
  { ops = List.length vlat;
    vseconds = vnow c -. w.v0;
    wall = Meter.seconds_since w.t0;
    heap_peak_mb = Meter.heap_peak_mb ();
    alloc_words = gc.Meter.words -. w.gc0.Meter.words;
    major_gcs = gc.Meter.majors - w.gc0.Meter.majors;
    vlat;
    counts = List.map2 (fun (k, a) (_, b) -> (k, b - a)) w.before (snapshot c);
    histograms = histogram_values c;
    file_bytes }

let wall_spent w ~seconds = Meter.seconds_since w.t0 >= seconds

let finish w ~window : Outcome.t =
  { window = Option.get window; timed_ops = w.timed_ops; timed_wall = Meter.seconds_since w.t0 }
