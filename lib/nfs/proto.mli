(** NFSv2 protocol definitions (RFC 1094) and their XDR codecs.

    File handles are 32-byte opaques; ours carry the inode number and
    generation (the 4.4BSD-style handle the paper proposes in §5),
    zero-padded. *)

val nfs_prog : int
val nfs_vers : int
val mount_prog : int
val mount_vers : int

val max_data : int
(** NFSv2 maximum transfer size per READ/WRITE. *)

(** {1 Procedure numbers} *)

val nfsproc_null : int
val nfsproc_getattr : int
val nfsproc_setattr : int
val nfsproc_root : int
val nfsproc_lookup : int
val nfsproc_readlink : int
val nfsproc_read : int
val nfsproc_writecache : int
val nfsproc_write : int
val nfsproc_create : int
val nfsproc_remove : int
val nfsproc_rename : int
val nfsproc_link : int
val nfsproc_symlink : int
val nfsproc_mkdir : int
val nfsproc_rmdir : int
val nfsproc_readdir : int
val nfsproc_statfs : int

val nfsproc_access : int
(** Vendor extension: the NFSv3 ACCESS procedure back-ported onto the
    v2 program. The client asks which of a set of access rights the
    server would grant it; DisCFS answers from KeyNote. *)

val nfsproc_readdirplus : int
(** Vendor extension (PROTOCOL.md §12.1): readdir + per-entry handle
    and attributes in one reply, amortizing one credential check and
    one channel seal over a directory page. *)

val nfsproc_multi_read : int
(** Vendor extension (PROTOCOL.md §12.2): up to {!max_read_segments}
    reads of one file under a single credential check and seal. *)

val max_read_segments : int
(** MULTI_READ segment bound per call (8). *)

(** {1 ACCESS right bits} *)

val access_read : int
val access_lookup : int
val access_modify : int
val access_extend : int
val access_delete : int
val access_execute : int
(* discfs-lint: allow test-only "the ACCESS tests ask for every right" *)
val access_all : int

val mountproc_mnt : int
val mountproc_umnt : int

(** {1 Status codes} *)

val nfs_ok : int
val nfserr_noent : int
val nfserr_io : int
val nfserr_acces : int
val nfserr_exist : int
val nfserr_notdir : int
val nfserr_isdir : int
val nfserr_fbig : int
val nfserr_nospc : int
val nfserr_nametoolong : int
val nfserr_notempty : int
val nfserr_stale : int

val nfserr_moved : int
(** Vendor extension (PROTOCOL.md §11.2): the addressed server does
    not serve this handle under the current shard map; the reply body
    is a signed {!redirect}. *)

val status_to_string : int -> string

exception Nfs_error of int
(** Raised by server procedure bodies; the dispatcher maps it to the
    reply's status field. *)

(** {1 Redirects} *)

type redirect = {
  r_target : int;  (** index of the server that serves the handle *)
  r_version : int;  (** shard-map version the redirect was issued under *)
  r_principal : string;  (** the target server's principal *)
  r_sig : string;  (** DSA signature over {!redirect_preimage} *)
}

exception Nfs_moved of redirect
(** Raised by client-side decoding on an [NFSERR_MOVED] status; the
    cluster client verifies the signature and re-issues the call. *)

val redirect_encode : Xdr.Enc.t -> redirect -> unit

val redirect_decode : Xdr.Dec.t -> redirect
(** Raises [Xdr.Decode_error] on oversized principal or signature
    fields (decode discipline, PROTOCOL.md §10). *)

val redirect_preimage :
  ino:int -> gen:int -> target:int -> version:int -> principal:string -> string
(** The domain-separated byte string the redirect signature covers:
    handle, target, map version and target principal. *)

(** {1 File handles} *)

type fh = { ino : int; gen : int }

val fh_encode : Xdr.Enc.t -> fh -> unit
val fh_decode : Xdr.Dec.t -> fh

(** {1 Attributes} *)

type ftype = NFNON | NFREG | NFDIR | NFLNK

type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  blocksize : int;
  blocks : int;
  fsid : int;
  fileid : int;
  atime : float;
  mtime : float;
  ctime : float;
}

val fattr_encode : Xdr.Enc.t -> fattr -> unit
val fattr_decode : Xdr.Dec.t -> fattr

(** Settable attributes: [None] fields encode as 0xffffffff, meaning
    "don't change". *)
type sattr = {
  s_mode : int option;
  s_uid : int option;
  s_gid : int option;
  s_size : int option;
}

val sattr_none : sattr
val sattr_encode : Xdr.Enc.t -> sattr -> unit
val sattr_decode : Xdr.Dec.t -> sattr

(** {1 Readdir entries} *)

type dirent = { d_fileid : int; d_name : string; d_cookie : int }

val direntries_encode : Xdr.Enc.t -> dirent list -> bool -> unit
(** [direntries_encode e entries eof] writes the entry list followed
    by the eof marker. *)

val direntries_decode : Xdr.Dec.t -> dirent list * bool

(** {1 Readdirplus entries} *)

(** A readdir entry extended with the handle and attributes the
    client would otherwise fetch with a per-name LOOKUP. *)
type direntplus = {
  p_fileid : int;
  p_name : string;
  p_cookie : int;
  p_fh : fh;
  p_attr : fattr;
}

val direntpluses_encode : Xdr.Enc.t -> direntplus list -> bool -> unit
val direntpluses_decode : Xdr.Dec.t -> direntplus list * bool

(** {1 Multi-read segments} *)

val read_segments_encode : Xdr.Enc.t -> (int * int) list -> unit
(** [(offset, count)] list; raises [Invalid_argument] when empty or
    over {!max_read_segments}. *)

val read_segments_decode : Xdr.Dec.t -> (int * int) list
(** Raises [Xdr.Decode_error] when the count is zero or over
    {!max_read_segments} (decode discipline, PROTOCOL.md §10). *)

type statfs_res = {
  tsize : int;
  bsize : int;
  total_blocks : int;
  bfree : int;
  bavail : int;
}

val statfs_encode : Xdr.Enc.t -> statfs_res -> unit
val statfs_decode : Xdr.Dec.t -> statfs_res
