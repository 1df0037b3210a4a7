(** Traffic-realism scenario programs over a full DisCFS testbed.

    Three canned experiments the SLO benchmark and the churn test
    suite share, all deterministic from their seeds: a
    latency-vs-offered-load sweep (the knee), a boot storm, and a
    long-horizon churn run with membership changes, a mid-run server
    crash and SA rekeys while load keeps arriving. *)

(* discfs-lint: allow test-only "the race-exploration test compares end states across schedules" *)
val fs_fingerprint : Ffs.Fs.t -> string
(** Logical end-state digest of a filesystem: SHA-1 over the sorted
    directory tree — paths, kinds, sizes and per-file content hashes,
    with inode numbers and block placement excluded. Two runs whose
    operations commute end with equal fingerprints no matter how the
    scheduler interleaved them; the schedule-exploration harness
    ([bench race_explore] and the QCheck equivalence properties)
    compares these across tie-seed perturbations. *)

(** {1 Shared building blocks} *)

val attach_with_file :
  Discfs.Cluster.t ->
  uid:int ->
  ?sa_lifetime:int ->
  ?retry:Oncrpc.Rpc.retry ->
  string ->
  Discfs.Cluster_client.t * Nfs.Proto.fh
(** Attach a client under the admin identity and give it its own
    8 KB file of that name in the root directory. *)

val mixed_op : Discfs.Cluster_client.t -> Nfs.Proto.fh -> int -> unit
(** Op [i] of the 1:2:1 GETATTR/READ/WRITE mix against an 8 KB file:
    a 1 KB WRITE when [i mod 4 = 0], a GETATTR when it is 1, otherwise
    a 2 KB READ, each at an offset that walks the file. *)

(** {1 Latency vs offered load} *)

type sweep_point = {
  sp_rate : float;  (** offered arrival rate, ops per virtual second *)
  sp_offered : int;
  sp_completed : int;
  sp_failed : int;
  sp_makespan : float;
  sp_throughput : float;  (** achieved, completed / makespan *)
  sp_summary : Slo.summary;  (** arrival-to-completion latency *)
  sp_qpeak : int;
  sp_rejects : int;
  sp_retrans : int;
}

val sweep :
  ?clients:int ->
  ?duration:float ->
  rates:float list ->
  unit ->
  sweep_point list * int option
(** One fresh deployment per offered rate (ascending!), each a
    four-worker cluster seeded ["slo-sweep"] driving
    [rate * duration] Poisson arrivals through a [clients]-wide
    connection pool at the 1:2:1 GETATTR/READ/WRITE mix.  Returns the
    points and {!Slo.knee} over them. *)

(** {1 Boot storm} *)

type storm_report = {
  st_clients : int;
  st_tree_files : int;
  st_ops : int;
  st_failed : int;
  st_makespan : float;  (** start to the last client finishing *)
  st_spread : float;
      (** last finish − first finish: worker-pool fairness — a starved
          client finishes long after the pack. *)
  st_summary : Slo.summary;  (** per-op service latency *)
  st_bcache_hits : int;
  st_bcache_misses : int;
  st_policy_hits : int;  (** policy-memo hits ([keynote.cache_hits]) *)
  st_policy_queries : int;
      (** cold KeyNote evaluations ([keynote.queries], memo misses) *)
  st_qpeak : int;
  st_rejects : int;
  st_retrans : int;
  st_fingerprint : string;
      (** logical end-state digest — tree shape, names, sizes and
          content hashes of the server filesystem, independent of
          inode and block numbering (see the race harness) *)
  st_races : int;  (** race reports; always [0] unless [racecheck] *)
}

val boot_storm :
  ?seed:string ->
  ?clients:int ->
  ?dirs:int ->
  ?files_per_dir:int ->
  ?workers:int ->
  ?queue_depth:int ->
  ?tie_seed:int64 ->
  ?racecheck:bool ->
  unit ->
  storm_report
(** [clients] (default 200) walk the same read-only subtree
    ([dirs] × [files_per_dir], built once by the admin) simultaneously
    — LOOKUP, READDIR, GETATTR, READ — against a deployment with the
    buffer cache and readahead on, so cross-client sharing in the
    bcache and the policy memo is what the hit counters measure. *)

(** {1 Long-horizon churn} *)

type churn_spec = {
  cs_seed : string;
  cs_rate : float;  (** Poisson arrival rate over the whole run *)
  cs_duration : float;  (** arrival horizon, virtual seconds *)
  cs_initial_clients : int;
  cs_join_every : float;  (** period of mid-run joins; [0.] = none *)
  cs_leave_every : float;  (** period of mid-run leaves; [0.] = none *)
  cs_crash_at : float option;
      (** server crash+restart instant (relative), under load *)
  cs_sa_lifetime : int option;
      (** ESP soft lifetime in packets — small values force rekeys *)
  cs_workers : int;
  cs_queue_depth : int;
  cs_retry : Oncrpc.Rpc.retry option;
}

val default_churn : churn_spec
(** Two virtual hours at 2 ops/s, 6 initial clients, a join every
    5 min, a leave every 7.5 min, a crash at the hour mark, rekeys
    every 64 packets. *)

type churn_report = {
  ch_offered : int;
  ch_completed : int;
  ch_failed : int;
  ch_hist_count : int;  (** latency observations — equals completed *)
  ch_summary : Slo.summary;
  ch_makespan : float;
  ch_throughput : float;
  ch_joins : int;
  ch_leaves : int;
  ch_crashes : int;
  ch_attaches : int;
  ch_detaches : int;
  ch_reattaches : int;
  ch_rekeys : int;
  ch_executed : int;
      (** pooled requests served across all incarnations
          ([rpc.queue.service] count) — an op may execute more than
          once (at-least-once retries), never less than [completed]
          would require. *)
  ch_client_ids : (int * int) list;
      (** every (incarnation, RPC client id) allocation, in order —
          the uniqueness law: no pair repeats. *)
  ch_final_active : int;  (** members still attached at the horizon *)
  ch_fingerprint : string;
      (** logical end-state digest of the final incarnation's
          filesystem (same walk as [st_fingerprint]) *)
  ch_races : int;  (** race reports; always [0] unless [racecheck] *)
}

val churn :
  ?spec:churn_spec -> ?tie_seed:int64 -> ?racecheck:bool -> unit -> churn_report
(** Run the churn scenario.  [tie_seed] perturbs the scheduler's
    tie order and [racecheck] arms the happens-before checker, both
    straight through to {!Discfs.Cluster.make}.
    Conservation laws on the report:
    [offered = completed + failed], [hist_count = completed], and no
    (incarnation, client-id) pair repeats in [ch_client_ids].
    Deterministic: equal specs produce equal reports. *)
