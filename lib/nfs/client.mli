(** Typed NFSv2 client stubs over an RPC connection. Calls raise
    {!Proto.Nfs_error} on non-OK status — except [NFSERR_MOVED],
    which decodes its signed redirect body and raises
    {!Proto.Nfs_moved} so a cluster-aware caller can verify it and
    re-issue the call at the named server. *)

type t

val create : Oncrpc.Rpc.client -> t

val mount : t -> string -> Proto.fh
(** MOUNTPROC_MNT: path to root file handle. *)

val null : t -> unit
val getattr : t -> Proto.fh -> Proto.fattr
val setattr : t -> Proto.fh -> Proto.sattr -> Proto.fattr
val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
val readlink : t -> Proto.fh -> string
val read : t -> Proto.fh -> off:int -> count:int -> Proto.fattr * string
val write : t -> Proto.fh -> off:int -> string -> Proto.fattr
(** The payload is borrowed into the request arena
    ({!Xdr.Enc.borrow}), not copied: the seal gathers it straight
    into the packet. *)

val create_file : t -> Proto.fh -> string -> Proto.sattr -> Proto.fh * Proto.fattr
val mkdir : t -> Proto.fh -> string -> Proto.sattr -> Proto.fh * Proto.fattr
val remove : t -> Proto.fh -> string -> unit
val rmdir : t -> Proto.fh -> string -> unit
val rename : t -> src:Proto.fh * string -> dst:Proto.fh * string -> unit
val link : t -> target:Proto.fh -> dir:Proto.fh -> string -> unit
val symlink : t -> Proto.fh -> string -> target:string -> unit
val readdir : t -> Proto.fh -> (string * int) list
(** Iterates READDIR with cookies until EOF; returns (name, fileid)
    including ["."] and [".."]. *)

val readdirplus : t -> Proto.fh -> Proto.direntplus list
(** Iterates READDIRPLUS with cookies until EOF: entries carry the
    handle and attributes, saving the per-name LOOKUP round trips. *)

val multi_read : t -> Proto.fh -> (int * int) list -> Proto.fattr * string list
(** MULTI_READ: up to {!Proto.max_read_segments} [(offset, count)]
    reads of one file in a single exchange; returns the file's
    attributes and one data string per segment. Raises
    [Invalid_argument] on an empty or oversized segment list. *)

val statfs : t -> Proto.fh -> Proto.statfs_res

val access : t -> Proto.fh -> int -> int
(** The ACCESS extension (v3 semantics on the v2 program): ask which
    of the requested {!Proto.access_read}... bits the server grants
    this connection, without attempting the operations. *)

(** {1 Convenience} *)

val read_all : t -> Proto.fh -> string
(** Sequential 8 KB READs to EOF. *)

val read_whole : t -> Proto.fh -> size:int -> string
(** Whole-file read with the size known up front (from a cached
    attribute): 8 KB pages batched {!Proto.max_read_segments} at a
    time into MULTI_READ calls. A short segment ends the file early. *)

val write_all : t -> Proto.fh -> string -> unit
(** Sequential 8 KB WRITEs from offset 0. *)

val resolve : t -> root:Proto.fh -> string -> Proto.fh * Proto.fattr
(** Walk a slash-separated path with LOOKUPs. *)
