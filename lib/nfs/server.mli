(** The user-level NFSv2 server, serving an {!Ffs.Fs} volume over ONC
    RPC. Plain NFS performs no access control (the paper's CFS-NE
    baseline); DisCFS injects its credential checks through
    {!hooks}. *)

type op =
  | Getattr
  | Setattr
  | Lookup
  | Readlink
  | Read
  | Write
  | Create
  | Remove
  | Rename
  | Link
  | Symlink
  | Mkdir
  | Rmdir
  | Readdir
  | Statfs
  | Readdirplus  (** compound: readdir + per-entry attributes *)
  | Multiread  (** compound: batched reads of one file *)

val op_to_string : op -> string

type hooks = {
  authorize : conn:Oncrpc.Rpc.conn_info -> fh:Proto.fh -> op:op -> (unit, int) result;
      (** Called before the operation touches the filesystem; [Error
          status] aborts with that NFS status. Directory-modifying
          ops authorize against the directory handle; [Rename]
          authorizes against both directories. *)
  present_attr : conn:Oncrpc.Rpc.conn_info -> Proto.fattr -> Proto.fattr;
      (** Rewrites attributes before they reach the client. DisCFS
          presents credential-derived permission bits here. *)
  rights : conn:Oncrpc.Rpc.conn_info -> fh:Proto.fh -> int;
      (** rwx bits (r=4 w=2 x=1) this connection holds on a handle;
          serves the ACCESS procedure. The default grants all. *)
}

type route = conn:Oncrpc.Rpc.conn_info -> fh:Proto.fh -> op:op -> string option
(** Consulted before handle validation and authorization. [Some
    reply] short-circuits the operation with those fully-encoded
    reply bytes — the cluster layer answers for non-owned handles
    with a signed [NFSERR_MOVED] redirect here (PROTOCOL.md §11.2).
    [None] lets the operation proceed locally. *)

type t

val create : fs:Ffs.Fs.t -> unit -> t
(** A server whose hooks allow everything and present attributes
    untouched; install others with {!set_hooks}. *)

val set_hooks : t -> hooks -> unit

val set_route : t -> route -> unit
(** Install a shard router in front of the hooks. *)

(* discfs-lint: allow test-only "the hot-path tests serve one call into a reply arena without the RPC framing" *)
val handler : t -> Oncrpc.Rpc.handler
(** The NFS program's handler, exactly as {!attach} registers it;
    exposed so tests can serve one call into a reply arena without the
    RPC framing around it. READ and MULTI_READ replies borrow the
    volume's immutable blocks ({!Ffs.Fs.read_pieces}) instead of
    copying them; WRITE stores its payload straight from the
    arguments ({!Ffs.Fs.write_sub}). *)

val attach : t -> Oncrpc.Rpc.server -> unit
(** Register the NFS program (100003v2) and the mount program
    (100005v1) on an RPC server. *)

val fattr_of_ino : t -> int -> Proto.fattr
(** Raw (pre-presentation) attributes; exposed for DisCFS and
    tests. *)
