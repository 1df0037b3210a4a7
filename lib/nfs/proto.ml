(* NFSv2 protocol definitions (RFC 1094) and their XDR codecs.

   File handles are 32-byte opaques; ours carry the inode number and
   generation (the 4.4BSD-style handle the paper proposes in §5),
   zero-padded. *)

let nfs_prog = 100003
let nfs_vers = 2
let mount_prog = 100005
let mount_vers = 1
let fh_size = 32
let max_data = 8192 (* NFSv2 transfer size *)

(* Procedure numbers. *)
let nfsproc_null = 0
let nfsproc_getattr = 1
let nfsproc_setattr = 2
let nfsproc_root = 3
let nfsproc_lookup = 4
let nfsproc_readlink = 5
let nfsproc_read = 6
let nfsproc_writecache = 7
let nfsproc_write = 8
let nfsproc_create = 9
let nfsproc_remove = 10
let nfsproc_rename = 11
let nfsproc_link = 12
let nfsproc_symlink = 13
let nfsproc_mkdir = 14
let nfsproc_rmdir = 15
let nfsproc_readdir = 16
let nfsproc_statfs = 17

(* Vendor extension: the NFSv3 ACCESS procedure back-ported onto the
   v2 program, as a step toward the paper's goal of offering the
   credential mechanism "as part of the standard NFS authentication
   framework". The client asks which of a set of access rights the
   server would grant it; DisCFS answers from KeyNote. *)
let nfsproc_access = 18

(* Vendor extensions (PROTOCOL.md §12): NFSv3-style compound
   procedures that amortize one credential check and one channel seal
   over many logical operations. READDIRPLUS returns directory
   entries together with each entry's handle and attributes;
   MULTI_READ performs up to [max_read_segments] page reads of one
   file in a single exchange. *)
let nfsproc_readdirplus = 19
let nfsproc_multi_read = 20

(* Bound on MULTI_READ segments per call: 8 pages of [max_data] keeps
   the reply under the 64 KB a UDP datagram could carry. *)
let max_read_segments = 8

let access_read = 0x01
let access_lookup = 0x02
let access_modify = 0x04
let access_extend = 0x08
let access_delete = 0x10
let access_execute = 0x20
let access_all = 0x3f

let mountproc_mnt = 1
let mountproc_umnt = 3

(* Status codes. *)
let nfs_ok = 0
let nfserr_noent = 2
let nfserr_io = 5
let nfserr_acces = 13
let nfserr_exist = 17
let nfserr_notdir = 20
let nfserr_isdir = 21
let nfserr_fbig = 27
let nfserr_nospc = 28
let nfserr_nametoolong = 63
let nfserr_notempty = 66
let nfserr_stale = 70

(* Vendor extension (PROTOCOL.md §11.2): the addressed server does
   not serve this handle under the current shard map. The reply body
   carries a signed redirect naming the server that does. *)
let nfserr_moved = 72

let status_to_string = function
  | 0 -> "NFS_OK"
  | 1 -> "NFSERR_PERM"
  | 2 -> "NFSERR_NOENT"
  | 5 -> "NFSERR_IO"
  | 13 -> "NFSERR_ACCES"
  | 17 -> "NFSERR_EXIST"
  | 20 -> "NFSERR_NOTDIR"
  | 21 -> "NFSERR_ISDIR"
  | 27 -> "NFSERR_FBIG"
  | 28 -> "NFSERR_NOSPC"
  | 63 -> "NFSERR_NAMETOOLONG"
  | 66 -> "NFSERR_NOTEMPTY"
  | 70 -> "NFSERR_STALE"
  | 72 -> "NFSERR_MOVED"
  | n -> Printf.sprintf "NFSERR_%d" n

exception Nfs_error of int

(* --- redirects ------------------------------------------------------ *)

(* The body of an NFSERR_MOVED reply. [r_target]/[r_principal] name
   the server that serves the handle under map version [r_version];
   [r_sig] is the redirecting server's DSA signature over the
   preimage built by {!redirect_preimage}, so a compromised or
   confused replica cannot silently re-home a client: the client
   verifies against the key it authenticated in IKE. *)
type redirect = { r_target : int; r_version : int; r_principal : string; r_sig : string }

exception Nfs_moved of redirect

let max_principal = 4096
let max_sig = 1024

let redirect_encode e r =
  Xdr.Enc.uint32 e r.r_target;
  Xdr.Enc.uint32 e r.r_version;
  Xdr.Enc.string e r.r_principal;
  Xdr.Enc.opaque e r.r_sig

let redirect_decode d =
  let r_target = Xdr.Dec.uint32 d in
  let r_version = Xdr.Dec.uint32 d in
  let r_principal = Xdr.Dec.string d in
  if String.length r_principal > max_principal then
    raise (Xdr.Decode_error "redirect: principal too long");
  let r_sig = Xdr.Dec.opaque d in
  if String.length r_sig > max_sig then raise (Xdr.Decode_error "redirect: signature too long");
  { r_target; r_version; r_principal; r_sig }

(* What the redirect signature covers: the handle being redirected,
   where to, and under which map version — domain-separated so the
   signature cannot be confused with any other DSA use of the server
   key (credentials, IKE). *)
let redirect_preimage ~ino ~gen ~target ~version ~principal =
  String.concat "\n"
    [
      "DisCFS-redirect-v1";
      string_of_int ino;
      string_of_int gen;
      string_of_int target;
      string_of_int version;
      principal;
    ]

(* --- file handles --------------------------------------------------- *)

type fh = { ino : int; gen : int }

let fh_encode e { ino; gen } =
  let b = Bytes.make fh_size '\000' in
  let put off v =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))
  in
  put 0 ino;
  put 4 gen;
  Xdr.Enc.opaque_fixed e fh_size (Bytes.to_string b)

let fh_decode d =
  let s = Xdr.Dec.opaque_fixed d fh_size in
  let get off =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]
  in
  { ino = get 0; gen = get 4 }

(* --- attributes ----------------------------------------------------- *)

type ftype = NFNON | NFREG | NFDIR | NFLNK

let ftype_code = function NFNON -> 0 | NFREG -> 1 | NFDIR -> 2 | NFLNK -> 5

let ftype_of_code = function
  | 0 -> NFNON
  | 1 -> NFREG
  | 2 -> NFDIR
  | 5 -> NFLNK
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad ftype %d" n))

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

let time_encode e t =
  let sec = int_of_float t in
  let usec = int_of_float ((t -. float_of_int sec) *. 1e6) in
  Xdr.Enc.uint32 e sec;
  Xdr.Enc.uint32 e usec

let time_decode d =
  let sec = Xdr.Dec.uint32 d in
  let usec = Xdr.Dec.uint32 d in
  float_of_int sec +. (float_of_int usec /. 1e6)

let fattr_encode e a =
  Xdr.Enc.uint32 e (ftype_code a.ftype);
  Xdr.Enc.uint32 e a.mode;
  Xdr.Enc.uint32 e a.nlink;
  Xdr.Enc.uint32 e a.uid;
  Xdr.Enc.uint32 e a.gid;
  Xdr.Enc.uint32 e a.size;
  Xdr.Enc.uint32 e a.blocksize;
  Xdr.Enc.uint32 e 0 (* rdev *);
  Xdr.Enc.uint32 e a.blocks;
  Xdr.Enc.uint32 e a.fsid;
  Xdr.Enc.uint32 e a.fileid;
  time_encode e a.atime;
  time_encode e a.mtime;
  time_encode e a.ctime

let fattr_decode d =
  let ftype = ftype_of_code (Xdr.Dec.uint32 d) in
  let mode = Xdr.Dec.uint32 d in
  let nlink = Xdr.Dec.uint32 d in
  let uid = Xdr.Dec.uint32 d in
  let gid = Xdr.Dec.uint32 d in
  let size = Xdr.Dec.uint32 d in
  let blocksize = Xdr.Dec.uint32 d in
  let _rdev = Xdr.Dec.uint32 d in
  let blocks = Xdr.Dec.uint32 d in
  let fsid = Xdr.Dec.uint32 d in
  let fileid = Xdr.Dec.uint32 d in
  let atime = time_decode d in
  let mtime = time_decode d in
  let ctime = time_decode d in
  { ftype; mode; nlink; uid; gid; size; blocksize; blocks; fsid; fileid; atime; mtime; ctime }

(* Settable attributes: -1 (0xffffffff) means "don't change". *)
type sattr = { s_mode : int option; s_uid : int option; s_gid : int option; s_size : int option }

let sattr_none = { s_mode = None; s_uid = None; s_gid = None; s_size = None }

let unset = 0xffffffff

let sattr_encode e s =
  let v = function Some x -> x | None -> unset in
  Xdr.Enc.uint32 e (v s.s_mode);
  Xdr.Enc.uint32 e (v s.s_uid);
  Xdr.Enc.uint32 e (v s.s_gid);
  Xdr.Enc.uint32 e (v s.s_size);
  (* atime/mtime: not settable in this implementation *)
  Xdr.Enc.uint32 e unset;
  Xdr.Enc.uint32 e unset;
  Xdr.Enc.uint32 e unset;
  Xdr.Enc.uint32 e unset

let sattr_decode d =
  let field () =
    let v = Xdr.Dec.uint32 d in
    if v = unset then None else Some v
  in
  let s_mode = field () in
  let s_uid = field () in
  let s_gid = field () in
  let s_size = field () in
  let _ = field () and _ = field () and _ = field () and _ = field () in
  { s_mode; s_uid; s_gid; s_size }

(* --- readdir entries ------------------------------------------------ *)

type dirent = { d_fileid : int; d_name : string; d_cookie : int }

let direntries_encode e entries eof =
  List.iter
    (fun de ->
      Xdr.Enc.bool e true;
      Xdr.Enc.uint32 e de.d_fileid;
      Xdr.Enc.string e de.d_name;
      Xdr.Enc.uint32 e de.d_cookie)
    entries;
  Xdr.Enc.bool e false;
  Xdr.Enc.bool e eof

let direntries_decode d =
  let rec go acc =
    if Xdr.Dec.bool d then begin
      let d_fileid = Xdr.Dec.uint32 d in
      let d_name = Xdr.Dec.string d in
      let d_cookie = Xdr.Dec.uint32 d in
      go ({ d_fileid; d_name; d_cookie } :: acc)
    end
    else begin
      let eof = Xdr.Dec.bool d in
      (List.rev acc, eof)
    end
  in
  go []

(* --- readdirplus entries -------------------------------------------- *)

(* A readdir entry extended with the handle and attributes the client
   would otherwise fetch with a per-name LOOKUP. *)
type direntplus = {
  p_fileid : int;
  p_name : string;
  p_cookie : int;
  p_fh : fh;
  p_attr : fattr;
}

let direntpluses_encode e entries eof =
  List.iter
    (fun de ->
      Xdr.Enc.bool e true;
      Xdr.Enc.uint32 e de.p_fileid;
      Xdr.Enc.string e de.p_name;
      Xdr.Enc.uint32 e de.p_cookie;
      fh_encode e de.p_fh;
      fattr_encode e de.p_attr)
    entries;
  Xdr.Enc.bool e false;
  Xdr.Enc.bool e eof

let direntpluses_decode d =
  let rec go acc =
    if Xdr.Dec.bool d then begin
      let p_fileid = Xdr.Dec.uint32 d in
      let p_name = Xdr.Dec.string d in
      let p_cookie = Xdr.Dec.uint32 d in
      let p_fh = fh_decode d in
      let p_attr = fattr_decode d in
      go ({ p_fileid; p_name; p_cookie; p_fh; p_attr } :: acc)
    end
    else begin
      let eof = Xdr.Dec.bool d in
      (List.rev acc, eof)
    end
  in
  go []

(* --- multi-read segments -------------------------------------------- *)

let read_segments_encode e segs =
  let n = List.length segs in
  if n = 0 || n > max_read_segments then
    invalid_arg "Proto.read_segments_encode: segment count out of range";
  Xdr.Enc.uint32 e n;
  List.iter
    (fun (off, count) ->
      Xdr.Enc.uint32 e off;
      Xdr.Enc.uint32 e count)
    segs

let read_segments_decode d =
  let n = Xdr.Dec.uint32 d in
  if n = 0 || n > max_read_segments then
    raise (Xdr.Decode_error "multi_read: segment count out of range");
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      let off = Xdr.Dec.uint32 d in
      let count = Xdr.Dec.uint32 d in
      go (k - 1) ((off, count) :: acc)
    end
  in
  go n []

type statfs_res = { tsize : int; bsize : int; total_blocks : int; bfree : int; bavail : int }

let statfs_encode e s =
  Xdr.Enc.uint32 e s.tsize;
  Xdr.Enc.uint32 e s.bsize;
  Xdr.Enc.uint32 e s.total_blocks;
  Xdr.Enc.uint32 e s.bfree;
  Xdr.Enc.uint32 e s.bavail

let statfs_decode d =
  let tsize = Xdr.Dec.uint32 d in
  let bsize = Xdr.Dec.uint32 d in
  let total_blocks = Xdr.Dec.uint32 d in
  let bfree = Xdr.Dec.uint32 d in
  let bavail = Xdr.Dec.uint32 d in
  { tsize; bsize; total_blocks; bfree; bavail }
