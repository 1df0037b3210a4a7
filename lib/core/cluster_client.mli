(** The DisCFS client — the paper's [cattach] plus the
    credential-submission utility (§5), over a server set of any
    size: one identity, a cached {!Shard_map}, and up to one
    authenticated connection per frontend — opened lazily, since IKE
    dominates attach cost and a client only needs the frontends its
    working set touches.

    Routing: reads go to the handle's owner or a replica (a pure
    function of handle and home, so the pick is reproducible), every
    mutation to the owner, metadata ops to the home frontend. A
    signed [NFSERR_MOVED] redirect (stale cached map) is verified
    against the key the connection authenticated in IKE, refreshes
    the cached map when it names a newer version, and re-issues the
    call — at most {!max_hops} times, so a corrupt map bounds at an
    error instead of a loop. A frontend crash surfaces as an RPC
    timeout; the client reattaches to the current incarnation,
    refreshes its map, and re-issues the call there, so it executes
    once and its outcome is the caller's. A timeout with no restart
    behind it is the caller's.

    Credentials and revocations go to the home frontend alone: the
    frontends share one store ({!Server.store}), so they hold wherever
    a call lands. A crash of the home is recovered for them the same
    way: reattach, then re-issue at the new incarnation. At one
    frontend ([Cluster.make ()]) the client sends exactly a
    single-server client's traffic (see [docs/TOPOLOGY.md]). *)

type t

exception Discfs_error of string
(** A DisCFS-level failure: an error reply to {!create}/{!mkdir}, a
    redirect that fails verification or exceeds the hop bound, or any
    call on a {!detach}ed handle. *)

val max_hops : int
(** Redirect hop bound per logical operation (4). *)

val attach :
  Cluster.t ->
  identity:Dcrypto.Dsa.private_key ->
  ?uid:int ->
  ?home:int ->
  ?path:string ->
  ?cipher:Ipsec.Sa.cipher ->
  ?sa_lifetime:int ->
  ?retry:Oncrpc.Rpc.retry ->
  unit ->
  t
(** IKE + mount against the [home] frontend (default 0), then an
    initial GETMAP (none at one frontend). [uid] (default 1000) is
    presented at attach; [path] selects the exported subtree (default
    ["/"]); [sa_lifetime] is the ESP soft lifetime in packets, after
    which the next call first runs {!Ipsec.Ike.rekey}; [retry]
    overrides the retransmission profile. Every connection opened is
    counted under ["client.attaches"], the lazy ones also under
    ["topo.lazy_attaches"], each crash re-home under
    ["client.reattaches"]. *)

val detach : t -> unit
(** Leave: drop every connection's SAs (each counted under
    ["client.detaches"]) and poison the handle — any later call
    raises {!Discfs_error}. *)

val home : t -> int

val principal : t -> string
(** This client's own key, in credential form. *)

val client_id : t -> int
(** The home connection's {!Oncrpc.Rpc.client_id}; a crash re-home
    allocates a fresh one from the new incarnation. *)

val map_version : t -> int
(** The cached map's version — lags the cluster's after a reshard
    until a redirect or GETMAP catches it up. *)

val refresh_map : t -> unit
(** GETMAP through the home frontend; a no-op at one frontend. *)

val root : t -> Nfs.Proto.fh

(** {1 Credentials} *)

val submit_credential : t -> Keynote.Assertion.t -> (string, string) result
val submit_credential_text : t -> string -> (string, string) result
(** [Ok fingerprint] once the store holds it; a revoked credential,
    or one signed by a revoked key, is refused. *)

val revoke_credential : t -> fingerprint:string -> (unit, string) result
(** For the whole cluster, and for good: the fingerprint can never be
    submitted again. Only its authorizer, or a frontend, may. *)

val revoke_key : t -> principal:string -> (unit, string) result
(** Administrator only. *)

(** {1 Operations}

    The NFS surface of {!Nfs.Client}, routed. All raise
    {!Nfs.Proto.Nfs_error} on failure status and
    {!Discfs_error} on redirect-verification failure or an exceeded
    hop bound. *)

val getattr : t -> Nfs.Proto.fh -> Nfs.Proto.fattr
val setattr : t -> Nfs.Proto.fh -> Nfs.Proto.sattr -> Nfs.Proto.fattr
val lookup : t -> Nfs.Proto.fh -> string -> Nfs.Proto.fh * Nfs.Proto.fattr
val readlink : t -> Nfs.Proto.fh -> string
val read : t -> Nfs.Proto.fh -> off:int -> count:int -> Nfs.Proto.fattr * string
val read_all : t -> Nfs.Proto.fh -> string
val write : t -> Nfs.Proto.fh -> off:int -> string -> Nfs.Proto.fattr
val write_all : t -> Nfs.Proto.fh -> string -> unit
val readdir : t -> Nfs.Proto.fh -> (string * int) list

val readdirplus : t -> Nfs.Proto.fh -> Nfs.Proto.direntplus list
(** Compound listing (entries with handles and attributes); served by
    any frontend, like [readdir]. *)

val multi_read :
  t -> Nfs.Proto.fh -> (int * int) list -> Nfs.Proto.fattr * string list
(** Batched read — routed like [read], to the owner or a leased
    replica of the handle's shard. *)

val read_whole : t -> Nfs.Proto.fh -> size:int -> string
(** Whole-file read as MULTI_READ batches, routed like [read]. *)

val statfs : t -> Nfs.Proto.fh -> Nfs.Proto.statfs_res
val access : t -> Nfs.Proto.fh -> int -> int
val remove : t -> Nfs.Proto.fh -> string -> unit
val rmdir : t -> Nfs.Proto.fh -> string -> unit
val rename : t -> src:Nfs.Proto.fh * string -> dst:Nfs.Proto.fh * string -> unit
val symlink : t -> Nfs.Proto.fh -> string -> target:string -> unit

val nfs_create :
  t -> Nfs.Proto.fh -> string -> Nfs.Proto.sattr -> Nfs.Proto.fh * Nfs.Proto.fattr
(** Plain NFS CREATE: no credential comes back (the paper's create
    problem, §5, which {!create} solves). *)

val nfs_mkdir :
  t -> Nfs.Proto.fh -> string -> Nfs.Proto.sattr -> Nfs.Proto.fh * Nfs.Proto.fattr

val link : t -> target:Nfs.Proto.fh -> dir:Nfs.Proto.fh -> string -> unit

val create :
  t -> dir:Nfs.Proto.fh -> string -> ?perms:int -> unit ->
  Nfs.Proto.fh * Nfs.Proto.fattr * Keynote.Assertion.t
(** DisCFS create on the directory's owner: the file plus a fresh RWX
    credential for it, issued to this client and admitted to the
    cluster's store. *)

val mkdir :
  t -> dir:Nfs.Proto.fh -> string -> ?perms:int -> unit ->
  Nfs.Proto.fh * Nfs.Proto.fattr * Keynote.Assertion.t

val resolve : t -> string -> Nfs.Proto.fh * Nfs.Proto.fattr
(** Walk a slash-separated path from the root with LOOKUPs. *)
