(** One authenticated connection to one DisCFS frontend: the paper's
    modified [cattach] plus the credential-submission utility.

    Private to the [discfs] library: {!Cluster_client} holds up to one
    of these per frontend and is the only DisCFS client callers see.
    {!attach} runs the IKE exchange with the server (binding the
    user's public key to the connection) and mounts the exported
    directory over NFS-in-ESP. *)

type t

exception Discfs_error of string
(** Re-exported as {!Cluster_client.Discfs_error}. *)

val attach :
  link:Simnet.Link.t ->
  rpc:Oncrpc.Rpc.server ->
  server:Server.t ->
  identity:Dcrypto.Dsa.private_key ->
  drbg:Dcrypto.Drbg.t ->
  ?uid:int ->
  ?cipher:Ipsec.Sa.cipher ->
  ?sa_lifetime:int ->
  ?retry:Oncrpc.Rpc.retry ->
  unit ->
  t
(** [uid] is the unix-style userid presented at attach time (no local
    significance on the server); the mount is the exported root
    ["/"]. [sa_lifetime] sets the ESP soft lifetime in
    packets: when an SA reaches it, the next call transparently runs
    the abbreviated {!Ipsec.Ike.rekey} exchange first. [retry]
    overrides the at-least-once retransmission profile. *)

val reattach : t -> rpc:Oncrpc.Rpc.server -> server:Server.t -> unit -> unit
(** Recover from a server crash: redo IKE and MOUNT against the
    restarted server's RPC endpoint. The connection's [nfs]/[root]
    are refreshed in place; file handles stay valid because inode
    generations survive in the disk image. The operation that timed
    out is not replayed here: its caller re-issues it on the new
    connection, so it executes once and its outcome reaches the
    caller. *)

val detach : t -> unit
(** Leave: drop the SAs and poison the connection — any further call
    raises {!Discfs_error}.  Purely client-side (no unmount protocol
    exists, as with real NFS clients that just go away); the server's
    per-connection state ages out of its caches. *)

val client_id : t -> int
(** The RPC-layer client id of the current connection
    ({!Oncrpc.Rpc.client_id}). *)

val nfs : t -> Nfs.Client.t
val root : t -> Nfs.Proto.fh

val server_principal : t -> string
(** The key this connection authenticated in IKE. *)

val call : t -> prog:int -> vers:int -> proc:int -> (Xdr.Enc.t -> unit) -> Xdr.Dec.t
(** A raw RPC on this connection (the cluster control program); the
    writer marshals the arguments into the request arena, as for
    {!Oncrpc.Rpc.call}. *)

val submit_credential_text : t -> string -> (string, string) result
(** Submit over RPC; [Ok fingerprint] on success. *)

val create :
  t -> dir:Nfs.Proto.fh -> string -> Nfs.Proto.fh * Nfs.Proto.fattr * Keynote.Assertion.t
(** The DisCFS create procedure: makes the file (mode 0644) and
    returns a fresh RWX credential for it issued to this client
    (paper §5). *)

val mkdir :
  t -> dir:Nfs.Proto.fh -> string -> Nfs.Proto.fh * Nfs.Proto.fattr * Keynote.Assertion.t

val revoke_credential : t -> fingerprint:string -> (unit, string) result
val revoke_key : t -> principal:string -> (unit, string) result
