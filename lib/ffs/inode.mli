(** On-"disk" inode structure, 4.x BSD style: 12 direct block
    pointers, one single-indirect and one double-indirect pointer.
    The generation number increments each time the inode is
    reallocated so stale NFS/DisCFS handles are detectable (the
    inode+generation handle suggested in section 5 of the paper). *)

val n_direct : int
(** Number of direct block pointers per inode. *)

val unallocated : int
(** Sentinel block/inode number meaning "no block allocated". *)

type kind = Reg | Dir | Symlink

type t = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable perms : int;  (** unix 0o777-style bits *)
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable gen : int;
  mutable direct : int array;
  mutable indirect : int;
  mutable double_indirect : int;
  mutable allocated : bool;
  mutable parent : int;  (** directory containing this inode, -1 if unknown *)
  mutable pname : string;  (** name under that directory *)
}

(** Immutable snapshot of an inode's metadata, as returned to the
    protocol layers by getattr-style operations. *)
type attr = {
  a_ino : int;
  a_kind : kind;
  a_size : int;
  a_perms : int;
  a_uid : int;
  a_gid : int;
  a_nlink : int;
  a_atime : float;
  a_mtime : float;
  a_ctime : float;
  a_gen : int;
}

val fresh : int -> t
(** [fresh ino] is an unallocated inode numbered [ino] with every
    field zeroed and all block pointers {!unallocated}. *)

val attr_of : t -> attr
(** Snapshot the inode's current metadata. *)
