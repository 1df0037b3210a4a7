(** A DisCFS server set: N serving frontends on an N-host
    {!Simnet.Topo} star, over one shared storage volume, with the
    namespace sharded across the frontends by the versioned
    {!Shard_map} and hot shards replicated read-only under owner
    leases. See [docs/TOPOLOGY.md] for the full walkthroughs.

    Trust: the frontends share one credential store ({!Server.store})
    trusting the administrator key and every frontend's key, so a
    credential or revocation admitted at any frontend holds at all of
    them. Authorization stays end-to-end in the client's KeyNote
    chain; redirects only re-home the {e request}, never the
    {e authority}.

    Routing: data READs are pinned to a shard's owner or a
    live-leased replica, every mutation to the owner alone (namespace
    ops route by the directory handle), and metadata reads are served
    by any frontend. A frontend that does not serve a handle answers
    with a signed [NFSERR_MOVED] redirect (PROTOCOL.md §11.2). *)

(** {1 The cluster control program (PROTOCOL.md §11)} *)

val cluster_prog : int
(** 391064; version {!cluster_vers}. *)

val cluster_vers : int

val clusterproc_getmap : int
(** Fetch the shard map if the caller's cached version is stale. *)

val clusterproc_lease : int
(** Replica → owner: grant or renew a read lease on a shard. *)

val clusterproc_invalidate : int
(** Owner → replica: revoke the lease on a just-mutated shard. *)

type node
type t

val make :
  ?nblocks:int ->
  ?block_size:int ->
  ?ninodes:int ->
  ?cache_size:int ->
  ?cache_blocks:int ->
  ?readahead:int ->
  ?hour:(unit -> int) ->
  ?strict_handles:bool ->
  ?seed:string ->
  ?fault:Simnet.Fault.t ->
  ?tracing:bool ->
  ?workers:int ->
  ?queue_depth:int ->
  ?racecheck:bool ->
  ?tie_seed:int64 ->
  ?switch_latency:float ->
  ?nshards:int ->
  ?servers:int ->
  unit ->
  t
(** Build [servers] (default 1) frontends, each with its own host
    (access link), RPC endpoint and DisCFS server over the one shared
    volume and credential store. [nshards] (default 32) sizes the shard space;
    [switch_latency] is the fabric hop added to every access link
    (see {!Simnet.Topo.create}), by default
    {!Simnet.Topo.default_switch_latency}, or [0.] at one server.
    Deterministic for a fixed [seed] (default ["discfs-deploy"]): the
    administrator key, then the host keys in index order, are drawn
    from the DRBG. The other defaults are 8 K blocks, 16 Ki blocks (a
    128 MB volume), 8 Ki inodes and a policy cache of 128. Every
    cluster runs the 2001-era cost model ({!Simnet.Cost.default}) and
    grants replica leases for one virtual hour.

    The default, [make ()], is the paper's two-host testbed (the
    Alice / Bob machines of Figure 6): one server, no switch hop. The
    cluster layer is inert at one node: every handle is served
    locally, so no GETMAP, redirect, lease or server-to-server
    traffic ever happens. Clients attach with {!Cluster_client.attach};
    node 0's parts are {!node_server}, {!node_rpc} and {!node_link}.

    [cache_blocks] (default [0] — off, the paper-faithful baseline)
    sizes the shared volume's buffer cache in blocks and [readahead]
    its sequential-prefetch window (see {!Ffs.Blockdev.create}); both
    are server memory and are dropped by {!crash_and_restart}.

    [fault] attaches one fault injector to every host's link and to
    the block device. [tracing] (default off) creates a {!Trace.t}
    keyed to the virtual clock and threads it through every layer
    (links, disk, RPC, ESP, NFS, KeyNote, policy cache), backed by the
    [metrics] registry; with it off, [trace] is {!Trace.null} and
    instrumentation is free.

    [workers] (default off) makes the cluster {e concurrent}: a
    {!Simnet.Sched} discrete-event scheduler takes ownership of the
    clock and every frontend's RPC server runs a bounded request queue
    ([queue_depth], default 64) drained by that many worker processes
    with per-client FIFO fairness and queue-full backpressure (see
    {!Oncrpc.Rpc.set_pool}). Client calls issued from inside
    scheduler processes ([Simnet.Sched.spawn] + [Simnet.Sched.run])
    then overlap in virtual time; calls made from plain code keep the
    serial semantics. Survives {!crash_and_restart} (the new
    incarnation gets a fresh, empty queue on the same scheduler).

    [racecheck] (default off) arms the happens-before race checker: a
    {!Race.ctx} keyed to the scheduler's pids and yield epochs is
    created and its monitors are wired into the shared buffer cache
    and every frontend's duplicate-request cache, in-flight
    coalescing map and policy cache (re-attached on each restart);
    client-side caches pick theirs up through {!race_monitor}.
    Requires [workers] (a serial cluster has no interleaving to
    check) — without a scheduler the flag is ignored and every
    monitor stays {!Race.null}, so the disabled mode is
    byte-identical to a build without the checker.

    [tie_seed] perturbs the scheduler's tie order among same-time
    events ({!Simnet.Sched.set_tie_seed}): schedule exploration for
    the race harness. [None] (default) preserves FIFO order. *)

val clock : t -> Simnet.Clock.t
val stats : t -> Simnet.Stats.t
val metrics : t -> Trace.Metrics.t
(** The same registry as {!stats}: the deployment has one. *)

val sched : t -> Simnet.Sched.t option
val trace : t -> Trace.t
val topo : t -> Simnet.Topo.t
val fs : t -> Ffs.Fs.t
val nservers : t -> int

val dev : t -> Ffs.Blockdev.t
(** The shared volume's block device. *)

val drbg : t -> Dcrypto.Drbg.t
(** The cluster DRBG itself; prefer {!fork_drbg} for new consumers. *)

val race_ctx : t -> Race.ctx option
(** The happens-before checker context, when the cluster was made with
    [~racecheck:true] and a scheduler. Read its reports after a run
    ({!Race.reports}) or hand it to a renderer. *)

val race_monitor : t -> string -> Race.monitor
(** A monitor over the cluster's race context for a client-side
    structure (e.g. the NFS attribute cache) — {!Race.null} when race
    checking is off, so callers can attach unconditionally. *)

val map : t -> Shard_map.t
(** The authoritative map. Clients must not alias this — they cache
    a copy via GETMAP and learn of staleness from redirects. *)

val node : t -> int -> node
val node_link : t -> int -> Simnet.Link.t
val node_rpc : t -> int -> Oncrpc.Rpc.server
val node_server : t -> int -> Server.t
val node_restarts : t -> int -> int
val server_principal : t -> int -> string

val admin_principal : t -> string

val admin_identity : t -> Dcrypto.Dsa.private_key
(** The administrator's key pair — what the benches attach a
    bootstrap client with. *)

val new_identity : t -> Dcrypto.Dsa.private_key

val fork_drbg : t -> label:string -> Dcrypto.Drbg.t
(** A labelled child of the cluster DRBG — what [Cluster_client]
    seeds each attach's IKE with. *)

val cost : t -> Simnet.Cost.t

val admin_issue :
  t -> licensees:string -> conditions:string -> ?comment:string -> unit -> Keynote.Assertion.t

val add_replica : t -> shard:int -> server:int -> (unit, string) result
(** Grant [server] a read replica of [shard]: bumps the map version
    and obtains the initial lease from the owner over the
    server-to-server LEASE call. *)

val remove_replica : t -> shard:int -> server:int -> unit

val renew_lease : t -> shard:int -> server:int -> (unit, string) result
(** Re-run the LEASE exchange for an expired or invalidated lease.
    [Ok ()] immediately if [server] owns the shard. *)

val reshard : t -> shard:int -> owner:int -> unit
(** Move a shard to a new owner and bump the map version. Clients
    holding the old map are corrected by signed redirects on their
    next routed call. Counted under ["topo.reshards"]. *)

val note_write : t -> ino:int -> unit
(** Owner-side write notification: INVALIDATE every replica's lease
    on the written handle's shard. Driven from the cluster client's
    write path; charged to the owner's server-to-server wire. *)

val crash_and_restart : t -> int -> unit
(** Kill frontend [i] and boot a fresh incarnation
    ({!Server.restart}): the cluster's credential store survives, the
    node's audit trail rides through, its SAs, caches and held leases
    die, and peers reconnect lazily. Clients
    attached to it time out and re-home inside that call
    ([Cluster_client]). Counted under ["server.restarts"].

    The shared volume reboots with the node, in place: the file
    system's pointer-block cache goes cold ({!Ffs.Fs.reboot}) and the
    buffer cache is dropped. No data is lost: the buffer cache is
    write-through, and no in-memory object is replaced, so a
    survivor's write in flight across the crash still lands. With
    several frontends the survivors also find the volume's memory
    cold. *)
