(** The DisCFS server: a user-level NFS server whose access control is
    entirely credential-based (paper §4-5).

    - The channel-authenticated public key of each client (from the
      IKE exchange) is the requesting principal for every NFS call.
    - Credentials live in a {!store} shared by every frontend of a
      cluster: a KeyNote {!Keynote.Session} (policy trusting the
      administrator's and every frontend's key, plus every admitted
      credential) and the revoked keys and fingerprints. A credential
      is DSA-verified once, where it is admitted.
    - Each operation maps to required permission bits; the compliance
      value returned by KeyNote, drawn from the ordered set [false <
      X < W < WX < R < RX < RW < RWX], is interpreted as the octal
      rwx bits (paper §5).
    - Each frontend keeps its own audit trail and LRU {!Policy_cache},
      keyed by (peer, action attributes, store generation). Any change
      to the store bumps its generation, retiring memoised levels at
      every frontend; the frontend that made it also flushes its memo.
    - The extra DisCFS RPC program provides credential submission,
      the create/mkdir variants that return a fresh credential to the
      creator, and revocation of credentials or keys. *)

val values : string list
(** [["false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX"]] — index =
    octal permission bits. *)

val discfs_prog : int
val discfs_vers : int

(** DisCFS program procedures. *)

val discfsproc_submit : int
val discfsproc_create : int
val discfsproc_mkdir : int
val discfsproc_revoke_cred : int
val discfsproc_revoke_key : int

type audit_entry = {
  au_time : float; (** virtual time of the decision *)
  au_peer : string; (** requesting principal (shortened) *)
  au_op : string;
  au_ino : int;
  au_value : string; (** compliance value that applied *)
  au_granted : bool;
}

type store
(** The credential store: cluster state, like the shared volume. *)

val create_store :
  admin:Dcrypto.Dsa.public -> frontends:Dcrypto.Dsa.public list -> trace:Trace.t -> store
(** An empty store trusting [admin] for everything and each frontend's
    key for [app_domain == "DisCFS"]; queries are traced on [trace]. *)

type t

val create :
  fs:Ffs.Fs.t ->
  store:store ->
  server_key:Dcrypto.Dsa.private_key ->
  drbg:Dcrypto.Drbg.t ->
  ?cache_size:int ->
  ?hour:(unit -> int) ->
  ?audit_enabled:bool ->
  ?strict_handles:bool ->
  unit ->
  t
(** [cache_size] defaults to 128 (the paper's evaluation setting).
    [hour] supplies the [hour] action attribute for time-of-day
    policies; it defaults to the virtual clock.

    [strict_handles] makes server-issued credentials bind the
    inode's generation number as well as its inode number. The
    paper's prototype identifies files by bare inode and notes that
    "the handle specifics need to be changed in the future since
    inodes are not suitable as [a] globally unique identifier"; with
    the default ([false], paper-faithful) a credential for a deleted
    file grants access to whatever later reuses the inode. With
    [strict_handles:true] the 4.4BSD-style inode+generation handle
    closes that hole. *)

val restart : t -> drbg:Dcrypto.Drbg.t -> t
(** A crashed frontend's next incarnation: same volume, store, key,
    settings and audit trail; new NFS server, empty policy cache. *)

val trace : t -> Trace.t
(** The deployment tracer (the filesystem's, see {!Ffs.Fs.trace});
    policy checks, KeyNote evaluations, credential operations and
    DisCFS procedures are recorded on it. *)

val nfs : t -> Nfs.Server.t
val session : t -> Keynote.Session.t

val cache : t -> Policy_cache.t
val server_principal : t -> string

val server_key : t -> Dcrypto.Dsa.private_key
(** The server's own signing key. Exposed because client and server
    run in one process here: the client's {!Cluster_client.attach} needs it
    to play the responder side of the IKE exchange. *)

val audit_log : t -> audit_entry list
(** Most recent first. The trail holds at most 10,000 entries: the
    record that would exceed that first drops the older half. *)

val set_audit : t -> bool -> unit

val attach_rpc : t -> Oncrpc.Rpc.server -> unit
(** Register NFS (100003v2), mount (100005v1) and the DisCFS program
    on an RPC server. *)

val query_level : t -> peer:string -> ino:int -> int
(** The (cached) compliance level for a principal on a handle;
    exposed for tests and the benchmark harness. Consults the
    {!Policy_cache} under the current attribute set and epoch — a
    revoked requester is refused before the cache is looked at. *)

val credentials_changed : t -> unit
(** Bump the store's generation (never persisted) and flush this
    frontend's {!Policy_cache}. Every credential-set change made
    through this module (submission, issue, revocation, {!load_state})
    calls it; a caller that changes {!session} directly must call it
    too, or memoised levels go stale. *)

val issue_create_credential : t -> peer:string -> ino:int -> name:string -> Keynote.Assertion.t
(** The credential the create/mkdir procedures hand back: RWX on the
    new handle, licensed to the creating peer, signed by the server
    key. Also admitted to the store. *)

(** {1 Persistence}

    Together with {!Ffs.Fs.save}/{!Ffs.Fs.load}, these let a DisCFS
    server restart without losing the credential store — the only
    state the paper's design keeps beyond the files themselves. *)

val save_state : t -> string
(** Serialize the store's credentials, revoked keys and revoked
    fingerprints, and this frontend's audit trail (PROTOCOL.md §8). *)

val load_state : t -> string -> (int, string) result
(** Restore saved state into a (freshly created) server's store and
    audit trail, all or nothing: a corrupt state, a revoked credential
    or a bad signature is an [Error] and changes nothing. Returns the
    number of credentials admitted. *)
