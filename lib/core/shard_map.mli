(** The versioned shard map: which server owns which slice of the
    namespace, and which servers hold read-only replicas of it.

    File handles are assigned to shards by a fixed, hand-written
    integer mix of the inode number — stable across processes and
    OCaml versions (unlike [Hashtbl.hash], which the determinism
    lint forbids). Maps are immutable; every change returns a
    successor with [version + 1]. Clients cache a map and discover
    staleness through signed redirects or the GETMAP procedure
    (PROTOCOL.md §11), never by aliasing the cluster's copy. *)

type shard = { owner : int; replicas : int list }
(** [owner] serves everything for the shard; [replicas] serve reads
    only, and only while holding a live lease (lease state is the
    cluster's soft state, not part of the map). *)

type t

val make : nservers:int -> nshards:int -> t
(** Version 1: shards striped round-robin over the servers, no
    replicas. Raises [Invalid_argument] unless both are positive. *)

val placeholder : nservers:int -> t
(** The version-0, single-shard stand-in a client holds before its
    first GETMAP. Real maps are born at version 1, so the first
    refresh always replaces a placeholder; routing through one sends
    everything to server 0, which answers with redirects. *)

val version : t -> int
val nshards : t -> int

val mix : int -> int
(** The 32-bit avalanche mix used for shard assignment; exposed so
    clients can spread replica picks with the same function. *)

val shard_of : t -> ino:int -> int
(** Which shard a handle belongs to: [mix ino mod nshards]. The
    generation half of the handle is deliberately excluded — a
    reused inode stays on its shard. *)

val shard : t -> int -> shard
val owner : t -> ino:int -> int

val serves : t -> server:int -> ino:int -> write:bool -> bool
(** Whether [server] may answer for this handle: the owner always
    may; a replica only for reads. *)

val add_replica : t -> shard:int -> server:int -> t
(** Grant a read replica (no-op if [server] already owns or
    replicates the shard). Bumps the version. *)

val move : t -> shard:int -> owner:int -> t
(** Reassign ownership. The new owner is removed from the replica
    list; the old owner is {e not} added to it (read authority is an
    explicit, leased grant). Bumps the version. *)

val encode : Xdr.Enc.t -> t -> unit
(** The wire format of PROTOCOL.md §11.1. *)

val decode : Xdr.Dec.t -> t
(** Raises [Xdr.Decode_error] on malformed input: zero servers or
    shards, out-of-range server indices, replica lists as long as
    the server set. *)

val to_string : t -> string
(** Deterministic one-map-per-line rendering for the ctl tool and
    logs. *)
