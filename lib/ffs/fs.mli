(** An FFS-like local filesystem on a {!Blockdev}: inodes with
    direct/indirect/double-indirect block pointers, real directory
    entries (including ["."] and [".."]), hard links, symlinks and
    generation numbers for stale-handle detection.

    This is both the DisCFS server's backing store and the paper's
    local-FS baseline (the "FFS" rows of Figures 7-12). All
    operations charge simulated disk time through the block device.

    Operations identify files by inode number, mirroring how the NFS
    layer above addresses them through file handles. No permission
    enforcement happens here — the servers above decide access (in
    DisCFS's case, from KeyNote credentials). *)

type t

type error =
  | ENOENT
  | ENOTDIR
  | EISDIR
  | EEXIST
  | ENOSPC
  | ENOTEMPTY
  | EFBIG
  | EINVAL
  | ESTALE
  | ENAMETOOLONG

exception Error of error * string

val error_to_string : error -> string

val create : dev:Blockdev.t -> ninodes:int -> t
(** Format a fresh filesystem on [dev] with an inode table of
    [ninodes] slots and an empty root directory. *)

val root : t -> int
val clock : t -> Simnet.Clock.t
val stats : t -> Simnet.Stats.t

val trace : t -> Trace.t
(** The underlying block device's tracer (see {!Blockdev.trace});
    layers above the filesystem share it. *)

val block_size : t -> int

(** {1 Attributes and handles} *)

val getattr : t -> int -> Inode.attr
val setattr : t -> int -> ?perms:int -> ?uid:int -> ?gid:int -> ?size:int -> unit -> Inode.attr
(** [?size] truncates or extends (sparse). *)

val generation : t -> int -> int
val valid_handle : t -> ino:int -> gen:int -> bool
(** True if [ino] is currently allocated with generation [gen]. *)

(** {1 Files} *)

val read : t -> int -> off:int -> len:int -> string
(** Short reads at end of file; [""] at or past EOF. {!read_pieces}
    plus one copy into the result. *)

val read_pieces : t -> int -> off:int -> len:int -> (string * int * int) list
(** The read core: the same range as {!read}, charged and accounted
    identically, returned without a copy as [(block, off, len)]
    pieces in file order ([[]] at or past EOF). Each piece is a range
    of an immutable block: a block the device's store and cache share
    ({!Blockdev.read_shared}), or one zero block this volume shares
    among all its holes. A piece never changes, even after later
    writes to the file, so it may be borrowed ({!Xdr.Enc.borrow})
    into a message that outlives the call. Every block is read
    before the list is returned. *)

val write : t -> int -> off:int -> string -> unit
(** Extends the file as needed; sparse gaps read back as zeros. *)

val write_sub : t -> int -> off:int -> string -> src_off:int -> len:int -> unit
(** [write_sub t ino ~off src ~src_off ~len] is
    [write t ino ~off (String.sub src src_off len)] without the
    substring: each block is built once, straight from [src]
    ({!Blockdev.write_sub}). Raises [Invalid_argument] on a range
    outside [src]. *)

(** {1 Directories} *)

val lookup : t -> int -> string -> int
(** [lookup t dir name]; handles ["."] and [".."]. *)

val create_file : t -> int -> string -> perms:int -> uid:int -> int
val mkdir : t -> int -> string -> perms:int -> uid:int -> int
val symlink : t -> int -> string -> target:string -> uid:int -> int
val readlink : t -> int -> string
val link : t -> int -> string -> target:int -> unit
val remove : t -> int -> string -> unit
(** Unlink a file or symlink; the inode is freed when its last link
    goes. *)

val rmdir : t -> int -> string -> unit
val rename : t -> int -> string -> int -> string -> unit
val readdir : t -> int -> (string * int) list
(** Includes ["."] and [".."]. *)

(** {1 Whole-filesystem} *)

type fsstat = {
  f_block_size : int;
  f_total_blocks : int;
  f_free_blocks : int;
  f_total_inodes : int;
  f_free_inodes : int;
}

val statfs : t -> fsstat

val resolve : t -> string -> int
(** Resolve an absolute slash-separated path from the root. *)

val path_of : t -> int -> string option
(** Canonical absolute path of an inode, tracked through
    create/rename parent links (["/"] for the root; hard links keep
    their original name; [None] for stale inodes). DisCFS exposes it
    to policies as the [PATH] action attribute. *)

(** {1 Persistence} *)

val save : t -> string
(** Serialize the whole volume (superblock state, inode table
    including generation numbers, and every written disk block) to a
    binary image. Maintenance operation: no virtual time. *)

exception Bad_image of string

val load : dev:Blockdev.t -> string -> t
(** Rebuild a filesystem from an image onto a fresh device of the
    same geometry. Raises {!Bad_image} on a corrupt image and
    [Invalid_argument] if the device geometry does not match. *)

val reboot : t -> unit
(** A server reboot, in place: metadata is flushed to the device and
    every cached pointer block goes cold, so the volume behaves (and
    is charged) as [load ~dev (save t)] would, while every holder of
    [t] — including an operation in flight across the reboot — keeps
    working on the same inodes. The server crash path; the caller
    drops the buffer cache ({!Blockdev.drop_cache}). *)
