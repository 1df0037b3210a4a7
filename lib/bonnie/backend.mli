(** A uniform client-side view of the three systems the paper
    benchmarks (§6): local FFS, remote CFS-NE, and DisCFS (NFS over
    IPsec with KeyNote checks). Each backend is fully set up
    (deployed, attached, credentials in place) on construction;
    workloads reset the virtual clock before measuring. *)

type handle

type t = {
  label : string;
  clock : Simnet.Clock.t;
  stats : Simnet.Stats.t;
  cost : Simnet.Cost.t;
  fs : Ffs.Fs.t; (** server-side filesystem, for out-of-band setup *)
  root : handle;
  mkdir : handle -> string -> handle;
  create : handle -> string -> handle;
  write : handle -> off:int -> string -> unit;
  read : handle -> off:int -> len:int -> string; (** short read at EOF *)
  read_whole : handle -> string;
      (** Whole-file read. DisCFS with [attr_cache] and [compound]
          transfers the file as MULTI_READ compounds; the rest loop
          page-sized {!read}s. *)
  readdir : handle -> string list; (** without ["."] and [".."] *)
  lookup : handle -> string -> handle;
  remove : handle -> string -> unit;
  parts : (Discfs.Cluster.t * Discfs.Cluster_client.t) option;
      (** The server set and the client behind a {!discfs} backend
          ([None] for the others): cache statistics for the ablation
          benches, shard-map surgery in the tests. They live exactly
          as long as the backend value. *)
}

val handle_of_ino : int -> handle
(** Address a server-side inode through a backend (used after
    building workload trees directly on [fs]). For remote backends
    the handle is re-derived from inode and generation. *)

val ffs_local : ?nblocks:int -> ?block_size:int -> ?ninodes:int -> unit -> t
(** Direct filesystem calls, no network (the FFS rows). Every
    operation charges one syscall of CPU. *)

val cfs_ne : ?nblocks:int -> ?block_size:int -> ?ninodes:int -> unit -> t
(** Plain NFS over the simulated Ethernet (the CFS-NE rows). *)

module Cache : module type of Nfs.Cache.Make (Discfs.Cluster_client)
(** The client-side attribute/name cache of DisCFS with
    [attr_cache:true]: {!Nfs.Cache} over the routed cluster client. *)

val discfs :
  ?nblocks:int ->
  ?block_size:int ->
  ?ninodes:int ->
  ?cache_size:int ->
  ?cache_blocks:int ->
  ?readahead:int ->
  ?attr_cache:bool ->
  ?attr_ttl:float ->
  ?name_ttl:float ->
  ?compound:bool ->
  ?servers:int ->
  ?nshards:int ->
  ?cipher:Ipsec.Sa.cipher ->
  ?fault:Simnet.Fault.t ->
  ?retry:Oncrpc.Rpc.retry ->
  ?tracing:bool ->
  unit ->
  t
(** Full DisCFS: IKE attach, ESP on every RPC, KeyNote authorization
    with the policy cache (the DisCFS rows). The test user is one
    {!Discfs.Cluster_client} holding an administrator-issued
    credential granting RWX over the volume, mirroring the paper's
    benchmark setup; workload creates and mkdirs are the plain NFS
    procedures.

    [servers] (default 1) sizes the server set: one is the paper's
    two-host testbed ({!Discfs.Cluster.make}'s defaults), more is a
    sharded {!Discfs.Cluster} of [nshards] shards whose label is
    ["DisCFS-<n>srv"]. Every op is
    routed by handle — mutations to the shard owner, reads to the
    owner or a leased replica, metadata to the home frontend — with
    signed redirects correcting a stale shard map in flight, so any
    Bonnie/search workload runs unchanged against the server set.

    [cache_size] sizes each server's policy memo cache,
    [cache_blocks] / [readahead] the buffer cache (default off).
    [attr_cache] (default off) routes lookup / read / write / remove
    through a client-side {!Cache} with the given TTLs — repeated
    lookups within [name_ttl] then skip the wire entirely. With
    [compound] (default on, only meaningful under [attr_cache])
    listings go over READDIRPLUS — one round trip that also
    prefetches both caches — and [read_whole] over batched
    MULTI_READ; [compound:false] keeps the per-op NFSv2 pipeline, the
    A/B the latency-breakdown bench measures. [cipher] picks the ESP
    transform; [fault] makes the links and disk lossy (see
    {!Simnet.Fault}); [retry] tunes the at-least-once RPC
    retransmission profile; [tracing] turns on the per-layer
    span/metrics instrumentation (see {!Discfs.Cluster.make}). *)

