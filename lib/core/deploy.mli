(** One-call setup of a complete DisCFS testbed: virtual clock, disk,
    filesystem, link, RPC server and a DisCFS server with an
    administrator identity — the simulated equivalent of the paper's
    Alice (server) / Bob (client) machines (Figure 6). Used by the
    examples, tests and the benchmark harness.

    A deployment {e is} the one-node {!Cluster}: [make] is
    [Cluster.make ~servers:1 ~switch_latency:0.] (one host has no
    switch hop), so the clock, stats, volume, DRBG, administrator and
    race checker are read with the {!Cluster} accessors
    ([Cluster.fs d], [Cluster.admin_issue d], ...). This module adds
    only the node-0 shortcuts; clients attach with
    {!Cluster_client.attach}. The cluster layer is inert at one node
    — every handle is served locally, so no GETMAP, redirect, lease
    or server-to-server traffic ever happens.

    The testbed can be made hostile: pass [fault] to {!make} to
    attach a fault injector to both the link and the disk, and call
    {!crash_and_restart} to kill the server mid-run and boot a new
    incarnation from stable storage. *)

type t = Cluster.t

val make :
  ?cost:Simnet.Cost.t ->
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
  unit ->
  t
(** [Cluster.make ~servers:1 ~switch_latency:0.] with seed
    ["discfs-deploy"]; every option means what it means there
    (defaults: 2001-era cost model, 8 K blocks, 16 Ki blocks (128 MB
    volume), 8 Ki inodes, policy cache of 128, buffer cache off).
    Deterministic: same seed, same keys, same results. *)

val link : t -> Simnet.Link.t
(** The server host's access link. *)

val rpc : t -> Oncrpc.Rpc.server
(** The current server incarnation's RPC endpoint. *)

val server : t -> Server.t
(** The current server incarnation. *)

val restarts : t -> int
(** Completed {!crash_and_restart}s. *)

val make_cluster :
  ?cost:Simnet.Cost.t ->
  ?nblocks:int ->
  ?block_size:int ->
  ?ninodes:int ->
  ?cache_size:int ->
  ?cache_blocks:int ->
  ?readahead:int ->
  ?hour:(unit -> int) ->
  ?strict_handles:bool ->
  ?seed:string ->
  ?tracing:bool ->
  ?workers:int ->
  ?queue_depth:int ->
  ?switch_latency:float ->
  ?nshards:int ->
  ?lease_duration:float ->
  ?retry:Oncrpc.Rpc.retry ->
  servers:int ->
  clients:int ->
  unit ->
  Cluster.t * Cluster_client.t list
(** Server-set + client-set construction: a {!Cluster.make} of
    [servers] frontends (N-host topology, sharded namespace, lease
    machinery) plus [clients] {!Cluster_client}s homed round-robin
    across them, uids 1000.., identities drawn from the cluster DRBG
    in client order. {!make} is the same construction at one node;
    see [docs/TOPOLOGY.md] for the cluster layer map. *)

val crash_and_restart : t -> unit
(** [Cluster.crash_and_restart t 0]: a server crash and reboot. The
    volume ({!Ffs.Fs.reboot}) and the credential store / revocation
    list / audit trail ([Server.save_state]) are carried through
    stable storage; SAs, the policy cache, the buffer cache
    and the RPC duplicate-request cache are lost with the process (the
    buffer cache is write-through, so dropping it loses no data — the
    new incarnation merely boots cold). Existing clients' next call
    times out ({!Oncrpc.Rpc.Rpc_timeout}) and re-homes onto the new
    incarnation inside that call ({!Cluster_client}). Counted under
    ["server.restarts"]. *)
