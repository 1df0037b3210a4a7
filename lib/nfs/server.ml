module Rpc = Oncrpc.Rpc

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
  | Readdirplus
  | Multiread

let op_to_string = function
  | Getattr -> "getattr"
  | Setattr -> "setattr"
  | Lookup -> "lookup"
  | Readlink -> "readlink"
  | Read -> "read"
  | Write -> "write"
  | Create -> "create"
  | Remove -> "remove"
  | Rename -> "rename"
  | Link -> "link"
  | Symlink -> "symlink"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"
  | Readdir -> "readdir"
  | Statfs -> "statfs"
  | Readdirplus -> "readdirplus"
  | Multiread -> "multiread"

(* ["nfs." ^ op_to_string op], spelled out so that naming a span
   allocates nothing, traced or not. *)
let span_name = function
  | Getattr -> "nfs.getattr"
  | Setattr -> "nfs.setattr"
  | Lookup -> "nfs.lookup"
  | Readlink -> "nfs.readlink"
  | Read -> "nfs.read"
  | Write -> "nfs.write"
  | Create -> "nfs.create"
  | Remove -> "nfs.remove"
  | Rename -> "nfs.rename"
  | Link -> "nfs.link"
  | Symlink -> "nfs.symlink"
  | Mkdir -> "nfs.mkdir"
  | Rmdir -> "nfs.rmdir"
  | Readdir -> "nfs.readdir"
  | Statfs -> "nfs.statfs"
  | Readdirplus -> "nfs.readdirplus"
  | Multiread -> "nfs.multiread"

type hooks = {
  authorize : conn:Rpc.conn_info -> fh:Proto.fh -> op:op -> (unit, int) result;
  present_attr : conn:Rpc.conn_info -> Proto.fattr -> Proto.fattr;
  rights : conn:Rpc.conn_info -> fh:Proto.fh -> int;
}

let no_hooks =
  {
    authorize = (fun ~conn:_ ~fh:_ ~op:_ -> Ok ());
    present_attr = (fun ~conn:_ a -> a);
    rights = (fun ~conn:_ ~fh:_ -> 7);
  }

(* A router sits in front of the hooks: in a cluster, a server that
   does not serve a handle under the current shard map answers with a
   fully-encoded NFSERR_MOVED reply instead of executing the
   operation. Kept outside [hooks] so single-server deployments and
   their hook wiring are untouched. *)
type route = conn:Rpc.conn_info -> fh:Proto.fh -> op:op -> string option

let no_route : route = fun ~conn:_ ~fh:_ ~op:_ -> None

type t = { fs : Ffs.Fs.t; mutable hooks : hooks; mutable route : route }

let create ~fs () = { fs; hooks = no_hooks; route = no_route }
let set_hooks t hooks = t.hooks <- hooks
let set_route t route = t.route <- route

let nfs_status_of_fs_error (e : Ffs.Fs.error) =
  match e with
  | Ffs.Fs.ENOENT -> Proto.nfserr_noent
  | Ffs.Fs.ENOTDIR -> Proto.nfserr_notdir
  | Ffs.Fs.EISDIR -> Proto.nfserr_isdir
  | Ffs.Fs.EEXIST -> Proto.nfserr_exist
  | Ffs.Fs.ENOSPC -> Proto.nfserr_nospc
  | Ffs.Fs.ENOTEMPTY -> Proto.nfserr_notempty
  | Ffs.Fs.EFBIG -> Proto.nfserr_fbig
  | Ffs.Fs.EINVAL -> Proto.nfserr_io
  | Ffs.Fs.ESTALE -> Proto.nfserr_stale
  | Ffs.Fs.ENAMETOOLONG -> Proto.nfserr_nametoolong

module Inode = Ffs.Inode

let mode_type_bits = function
  | Inode.Reg -> 0o100000
  | Inode.Dir -> 0o040000
  | Inode.Symlink -> 0o120000

let fattr_of_attr t (a : Inode.attr) : Proto.fattr =
  let bs = Ffs.Fs.block_size t.fs in
  {
    Proto.ftype =
      (match a.Inode.a_kind with
      | Inode.Reg -> Proto.NFREG
      | Inode.Dir -> Proto.NFDIR
      | Inode.Symlink -> Proto.NFLNK);
    mode = mode_type_bits a.Inode.a_kind lor a.Inode.a_perms;
    nlink = a.Inode.a_nlink;
    uid = a.Inode.a_uid;
    gid = a.Inode.a_gid;
    size = a.Inode.a_size;
    blocksize = bs;
    blocks = (a.Inode.a_size + 511) / 512;
    fsid = 1;
    fileid = a.Inode.a_ino;
    atime = a.Inode.a_atime;
    mtime = a.Inode.a_mtime;
    ctime = a.Inode.a_ctime;
  }

let fattr_of_ino t ino = fattr_of_attr t (Ffs.Fs.getattr t.fs ino)

let fh_of t ino = { Proto.ino; gen = Ffs.Fs.generation t.fs ino }

let check_fh t (fh : Proto.fh) =
  if not (Ffs.Fs.valid_handle t.fs ~ino:fh.Proto.ino ~gen:fh.Proto.gen) then
    raise (Proto.Nfs_error Proto.nfserr_stale)

(* Encode a status-only reply, or status + body on success, into the
   RPC reply arena [e]. *)
let reply_status e ?body status =
  Xdr.Enc.uint32 e status;
  (match body with Some f when status = Proto.nfs_ok -> f e | _ -> ());
  Ok ()

(* [f] encodes the operation's reply into [e]; if it fails part-way,
   what it wrote is dropped and the error status replaces it. *)
let run t e ~conn ~fh ~op f =
  Trace.span (Ffs.Fs.trace t.fs) (span_name op) @@ fun () ->
  match t.route ~conn ~fh ~op with
  | Some reply ->
    Xdr.Enc.raw e reply;
    Ok ()
  | None -> (
  let mark = Xdr.Enc.length e in
  let fail status =
    Xdr.Enc.truncate e mark;
    reply_status e status
  in
  match
    check_fh t fh;
    t.hooks.authorize ~conn ~fh ~op
  with
  | exception Proto.Nfs_error status -> fail status
  | Error status -> fail status
  | Ok () -> (
    match f () with
    | result -> result
    | exception Proto.Nfs_error status -> fail status
    | exception Ffs.Fs.Error (err, _) -> fail (nfs_status_of_fs_error err)
    | exception Ffs.Blockdev.Io_error _ -> fail Proto.nfserr_io))

let attr_body t conn attr e = Proto.fattr_encode e (t.hooks.present_attr ~conn attr)

let diropres_body t conn ino e =
  Proto.fh_encode e (fh_of t ino);
  attr_body t conn (fattr_of_ino t ino) e

(* READ-style data as an XDR opaque whose bytes are borrowed from the
   volume's immutable blocks ({!Ffs.Fs.read_pieces}): the reply arena
   holds the length word and padding, the data stays where it is. *)
let pieces_body e pieces =
  Xdr.Enc.sub_writer e (fun e ->
      List.iter (fun (block, off, len) -> Xdr.Enc.borrow e block ~off ~len) pieces)

(* One READDIR/READDIRPLUS page: the directory's entries from [cookie]
   on that fit the client's byte budget, approximately respected (at
   least 512 bytes, [entry_size] plus the name per entry). [make]
   builds each entry with the cookie that resumes after it. Returns
   the page and whether it reaches the end of the directory. *)
let readdir_page t fh ~cookie ~count ~entry_size make =
  (* The page ends at the first entry that does not fit, and an
     entry's cookie is its position + 1, so the next page starts
     exactly where this one stopped. *)
  let rec take budget pos acc = function
    | [] -> (List.rev acc, true)
    | (name, ino) :: rest ->
      let sz = entry_size + String.length name in
      if sz > budget then (List.rev acc, false)
      else take (budget - sz) (pos + 1) (make name ino (pos + 1) :: acc) rest
  in
  take (max count 512) cookie []
    (List.filteri (fun i _ -> i >= cookie) (Ffs.Fs.readdir t.fs fh.Proto.ino))

let handle_nfs t ~conn ~proc ~args:d e =
  let run = run t e and reply_status = reply_status e in
  if proc = Proto.nfsproc_null then Ok ()
  else if proc = Proto.nfsproc_getattr then begin
    let fh = Proto.fh_decode d in
    run ~conn ~fh ~op:Getattr (fun () ->
        reply_status Proto.nfs_ok ~body:(attr_body t conn (fattr_of_ino t fh.Proto.ino)))
  end
  else if proc = Proto.nfsproc_setattr then begin
    let fh = Proto.fh_decode d in
    let sattr = Proto.sattr_decode d in
    run ~conn ~fh ~op:Setattr (fun () ->
        let attr =
          Ffs.Fs.setattr t.fs fh.Proto.ino ?perms:sattr.Proto.s_mode ?uid:sattr.Proto.s_uid
            ?gid:sattr.Proto.s_gid ?size:sattr.Proto.s_size ()
        in
        reply_status Proto.nfs_ok ~body:(attr_body t conn (fattr_of_attr t attr)))
  end
  else if proc = Proto.nfsproc_lookup then begin
    let fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    run ~conn ~fh ~op:Lookup (fun () ->
        let ino = Ffs.Fs.lookup t.fs fh.Proto.ino name in
        reply_status Proto.nfs_ok ~body:(diropres_body t conn ino))
  end
  else if proc = Proto.nfsproc_readlink then begin
    let fh = Proto.fh_decode d in
    run ~conn ~fh ~op:Readlink (fun () ->
        let target = Ffs.Fs.readlink t.fs fh.Proto.ino in
        reply_status Proto.nfs_ok ~body:(fun e -> Xdr.Enc.string e target))
  end
  else if proc = Proto.nfsproc_read then begin
    let fh = Proto.fh_decode d in
    let offset = Xdr.Dec.uint32 d in
    let count = Xdr.Dec.uint32 d in
    let _totalcount = Xdr.Dec.uint32 d in
    run ~conn ~fh ~op:Read (fun () ->
        let count = min count Proto.max_data in
        let pieces = Ffs.Fs.read_pieces t.fs fh.Proto.ino ~off:offset ~len:count in
        reply_status Proto.nfs_ok ~body:(fun e ->
            attr_body t conn (fattr_of_ino t fh.Proto.ino) e;
            pieces_body e pieces))
  end
  else if proc = Proto.nfsproc_writecache then Ok ()
  else if proc = Proto.nfsproc_write then begin
    let fh = Proto.fh_decode d in
    let _beginoffset = Xdr.Dec.uint32 d in
    let offset = Xdr.Dec.uint32 d in
    let _totalcount = Xdr.Dec.uint32 d in
    (* The payload stays in the opened datagram; each block it lands
       in is built once, straight from there. *)
    let data, data_off, data_len = Xdr.Dec.opaque_with d (fun s ~off ~len -> (s, off, len)) in
    run ~conn ~fh ~op:Write (fun () ->
        Ffs.Fs.write_sub t.fs fh.Proto.ino ~off:offset data ~src_off:data_off ~len:data_len;
        reply_status Proto.nfs_ok ~body:(attr_body t conn (fattr_of_ino t fh.Proto.ino)))
  end
  else if proc = Proto.nfsproc_create || proc = Proto.nfsproc_mkdir then begin
    let fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    let sattr = Proto.sattr_decode d in
    let op = if proc = Proto.nfsproc_create then Create else Mkdir in
    run ~conn ~fh ~op (fun () ->
        let perms = match sattr.Proto.s_mode with Some m -> m land 0o7777 | None -> 0o644 in
        let uid = match sattr.Proto.s_uid with Some u -> u | None -> conn.Rpc.uid in
        let make =
          if proc = Proto.nfsproc_create then Ffs.Fs.create_file else Ffs.Fs.mkdir
        in
        let ino = make t.fs fh.Proto.ino name ~perms ~uid in
        reply_status Proto.nfs_ok ~body:(diropres_body t conn ino))
  end
  else if proc = Proto.nfsproc_remove || proc = Proto.nfsproc_rmdir then begin
    let fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    let op = if proc = Proto.nfsproc_remove then Remove else Rmdir in
    run ~conn ~fh ~op (fun () ->
        (if proc = Proto.nfsproc_remove then Ffs.Fs.remove else Ffs.Fs.rmdir)
          t.fs fh.Proto.ino name;
        reply_status Proto.nfs_ok)
  end
  else if proc = Proto.nfsproc_rename then begin
    let src_fh = Proto.fh_decode d in
    let src_name = Xdr.Dec.string d in
    let dst_fh = Proto.fh_decode d in
    let dst_name = Xdr.Dec.string d in
    run ~conn ~fh:src_fh ~op:Rename (fun () ->
        match
          check_fh t dst_fh;
          t.hooks.authorize ~conn ~fh:dst_fh ~op:Rename
        with
        | Error status -> reply_status status
        | Ok () ->
          Ffs.Fs.rename t.fs src_fh.Proto.ino src_name dst_fh.Proto.ino dst_name;
          reply_status Proto.nfs_ok)
  end
  else if proc = Proto.nfsproc_link then begin
    let target_fh = Proto.fh_decode d in
    let dir_fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    run ~conn ~fh:dir_fh ~op:Link (fun () ->
        check_fh t target_fh;
        Ffs.Fs.link t.fs dir_fh.Proto.ino name ~target:target_fh.Proto.ino;
        reply_status Proto.nfs_ok)
  end
  else if proc = Proto.nfsproc_symlink then begin
    let fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    let target = Xdr.Dec.string d in
    let _sattr = Proto.sattr_decode d in
    run ~conn ~fh ~op:Symlink (fun () ->
        ignore (Ffs.Fs.symlink t.fs fh.Proto.ino name ~target ~uid:conn.Rpc.uid);
        reply_status Proto.nfs_ok)
  end
  else if proc = Proto.nfsproc_readdir then begin
    let fh = Proto.fh_decode d in
    let cookie = Xdr.Dec.uint32 d in
    let count = Xdr.Dec.uint32 d in
    run ~conn ~fh ~op:Readdir (fun () ->
        let taken, eof =
          readdir_page t fh ~cookie ~count ~entry_size:16 (fun name ino cookie ->
              { Proto.d_fileid = ino; d_name = name; d_cookie = cookie })
        in
        reply_status Proto.nfs_ok ~body:(fun e -> Proto.direntries_encode e taken eof))
  end
  else if proc = Proto.nfsproc_readdirplus then begin
    let fh = Proto.fh_decode d in
    let cookie = Xdr.Dec.uint32 d in
    let count = Xdr.Dec.uint32 d in
    run ~conn ~fh ~op:Readdirplus (fun () ->
        (* The plus-entry also carries the handle (32 B) and the
           attributes (68 B), so it costs more of the budget than plain
           readdir's. One authorization covers the page; each entry's
           attributes still pass through [present_attr]. *)
        let taken, eof =
          readdir_page t fh ~cookie ~count ~entry_size:116 (fun name ino cookie ->
              {
                Proto.p_fileid = ino;
                p_name = name;
                p_cookie = cookie;
                p_fh = fh_of t ino;
                p_attr = t.hooks.present_attr ~conn (fattr_of_ino t ino);
              })
        in
        reply_status Proto.nfs_ok ~body:(fun e -> Proto.direntpluses_encode e taken eof))
  end
  else if proc = Proto.nfsproc_multi_read then begin
    let fh = Proto.fh_decode d in
    let segs = Proto.read_segments_decode d in
    run ~conn ~fh ~op:Multiread (fun () ->
        (* One credential check for the whole batch; the attributes
           are presented once, ahead of the segments. Every segment is
           read before anything is encoded. *)
        let segments =
          List.map
            (fun (off, count) ->
              let count = min count Proto.max_data in
              Ffs.Fs.read_pieces t.fs fh.Proto.ino ~off ~len:count)
            segs
        in
        reply_status Proto.nfs_ok ~body:(fun e ->
            attr_body t conn (fattr_of_ino t fh.Proto.ino) e;
            Xdr.Enc.uint32 e (List.length segments);
            List.iter (pieces_body e) segments))
  end
  else if proc = Proto.nfsproc_access then begin
    let fh = Proto.fh_decode d in
    let wanted = Xdr.Dec.uint32 d in
    run ~conn ~fh ~op:Getattr (fun () ->
        let bits = t.hooks.rights ~conn ~fh in
        let granted = ref 0 in
        if bits land 4 = 4 then granted := !granted lor Proto.access_read;
        if bits land 2 = 2 then
          granted := !granted lor Proto.access_modify lor Proto.access_extend lor Proto.access_delete;
        if bits land 1 = 1 then
          granted := !granted lor Proto.access_lookup lor Proto.access_execute;
        reply_status Proto.nfs_ok ~body:(fun e -> Xdr.Enc.uint32 e (!granted land wanted)))
  end
  else if proc = Proto.nfsproc_statfs then begin
    let fh = Proto.fh_decode d in
    run ~conn ~fh ~op:Statfs (fun () ->
        let s = Ffs.Fs.statfs t.fs in
        reply_status Proto.nfs_ok ~body:(fun e ->
            Proto.statfs_encode e
              {
                Proto.tsize = Proto.max_data;
                bsize = s.Ffs.Fs.f_block_size;
                total_blocks = s.Ffs.Fs.f_total_blocks;
                bfree = s.Ffs.Fs.f_free_blocks;
                bavail = s.Ffs.Fs.f_free_blocks;
              }))
  end
  else if proc = Proto.nfsproc_root then Error Rpc.Proc_unavail (* obsolete in v2 *)
  else Error Rpc.Proc_unavail

let handle_mount t ~conn:_ ~proc ~args:d e =
  if proc = 0 then Ok ()
  else if proc = Proto.mountproc_mnt then begin
    Trace.span (Ffs.Fs.trace t.fs) "nfs.mount" @@ fun () ->
    let path = Xdr.Dec.string d in
    match Ffs.Fs.resolve t.fs path with
    | ino ->
      Xdr.Enc.uint32 e 0 (* status ok *);
      Proto.fh_encode e (fh_of t ino);
      Ok ()
    | exception Ffs.Fs.Error (err, _) ->
      Xdr.Enc.uint32 e (nfs_status_of_fs_error err);
      Ok ()
  end
  else if proc = Proto.mountproc_umnt then Ok ()
  else Error Rpc.Proc_unavail

let handler = handle_nfs

let attach t rpc_server =
  Rpc.register rpc_server ~prog:Proto.nfs_prog ~vers:Proto.nfs_vers (handle_nfs t);
  Rpc.register rpc_server ~prog:Proto.mount_prog ~vers:Proto.mount_vers (handle_mount t)
