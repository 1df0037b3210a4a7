module Rpc = Oncrpc.Rpc

type t = { rpc : Rpc.client }

let create rpc = { rpc }

let call t proc args = Rpc.call t.rpc ~prog:Proto.nfs_prog ~vers:Proto.nfs_vers ~proc args

let status_check d =
  let status = Xdr.Dec.uint32 d in
  if status = Proto.nfserr_moved then raise (Proto.Nfs_moved (Proto.redirect_decode d))
  else if status <> Proto.nfs_ok then raise (Proto.Nfs_error status)

let mount t path =
  let d =
    Rpc.call t.rpc ~prog:Proto.mount_prog ~vers:Proto.mount_vers ~proc:Proto.mountproc_mnt
      (fun e -> Xdr.Enc.string e path)
  in
  status_check d;
  let fh = Proto.fh_decode d in
  Xdr.Dec.expect_end d;
  fh

let attrstat d =
  status_check d;
  let attr = Proto.fattr_decode d in
  Xdr.Dec.expect_end d;
  attr

let diropres d =
  status_check d;
  let fh = Proto.fh_decode d in
  let attr = Proto.fattr_decode d in
  Xdr.Dec.expect_end d;
  (fh, attr)

let getattr t fh = attrstat (call t Proto.nfsproc_getattr (fun e -> Proto.fh_encode e fh))

let setattr t fh sattr =
  attrstat
    (call t Proto.nfsproc_setattr (fun e ->
         Proto.fh_encode e fh;
         Proto.sattr_encode e sattr))

let lookup t fh name =
  diropres
    (call t Proto.nfsproc_lookup (fun e ->
         Proto.fh_encode e fh;
         Xdr.Enc.string e name))

let readlink t fh =
  let d = call t Proto.nfsproc_readlink (fun e -> Proto.fh_encode e fh) in
  status_check d;
  let target = Xdr.Dec.string d in
  Xdr.Dec.expect_end d;
  target

let read t fh ~off ~count =
  let d =
    call t Proto.nfsproc_read (fun e ->
        Proto.fh_encode e fh;
        Xdr.Enc.uint32 e off;
        Xdr.Enc.uint32 e count;
        Xdr.Enc.uint32 e count)
  in
  status_check d;
  let attr = Proto.fattr_decode d in
  let data = Xdr.Dec.opaque d in
  Xdr.Dec.expect_end d;
  (attr, data)

(* The payload is borrowed into the request arena, not copied: the
   seal gathers it straight into the packet. *)
let write_sub t fh ~off data ~src_off ~len =
  attrstat
    (call t Proto.nfsproc_write (fun e ->
         Proto.fh_encode e fh;
         Xdr.Enc.uint32 e off;
         Xdr.Enc.uint32 e off;
         Xdr.Enc.uint32 e len;
         Xdr.Enc.sub_writer e (fun e -> Xdr.Enc.borrow e data ~off:src_off ~len)))

let write t fh ~off data = write_sub t fh ~off data ~src_off:0 ~len:(String.length data)

let make_node proc t fh name sattr =
  diropres
    (call t proc (fun e ->
         Proto.fh_encode e fh;
         Xdr.Enc.string e name;
         Proto.sattr_encode e sattr))

let create_file t fh name sattr = make_node Proto.nfsproc_create t fh name sattr
let mkdir t fh name sattr = make_node Proto.nfsproc_mkdir t fh name sattr

let status_only d =
  status_check d;
  Xdr.Dec.expect_end d

let name_op proc t fh name =
  status_only
    (call t proc (fun e ->
         Proto.fh_encode e fh;
         Xdr.Enc.string e name))

let remove t fh name = name_op Proto.nfsproc_remove t fh name
let rmdir t fh name = name_op Proto.nfsproc_rmdir t fh name

let rename t ~src:(src_fh, src_name) ~dst:(dst_fh, dst_name) =
  status_only
    (call t Proto.nfsproc_rename (fun e ->
         Proto.fh_encode e src_fh;
         Xdr.Enc.string e src_name;
         Proto.fh_encode e dst_fh;
         Xdr.Enc.string e dst_name))

let link t ~target ~dir name =
  status_only
    (call t Proto.nfsproc_link (fun e ->
         Proto.fh_encode e target;
         Proto.fh_encode e dir;
         Xdr.Enc.string e name))

let symlink t fh name ~target =
  status_only
    (call t Proto.nfsproc_symlink (fun e ->
         Proto.fh_encode e fh;
         Xdr.Enc.string e name;
         Xdr.Enc.string e target;
         Proto.sattr_encode e Proto.sattr_none))

let readdir t fh =
  let rec pages cookie acc =
    let d =
      call t Proto.nfsproc_readdir (fun e ->
          Proto.fh_encode e fh;
          Xdr.Enc.uint32 e cookie;
          Xdr.Enc.uint32 e Proto.max_data)
    in
    status_check d;
    let entries, eof = Proto.direntries_decode d in
    let acc = acc @ List.map (fun de -> (de.Proto.d_name, de.Proto.d_fileid)) entries in
    if eof || entries = [] then acc
    else pages (List.fold_left (fun m de -> max m de.Proto.d_cookie) cookie entries) acc
  in
  pages 0 []

let readdirplus t fh =
  let rec pages cookie acc =
    let d =
      call t Proto.nfsproc_readdirplus (fun e ->
          Proto.fh_encode e fh;
          Xdr.Enc.uint32 e cookie;
          Xdr.Enc.uint32 e Proto.max_data)
    in
    status_check d;
    let entries, eof = Proto.direntpluses_decode d in
    let acc = acc @ entries in
    if eof || entries = [] then acc
    else pages (List.fold_left (fun m de -> max m de.Proto.p_cookie) cookie entries) acc
  in
  pages 0 []

(* Issue one MULTI_READ and return the reply cursor positioned on its
   [List.length segs] segments, after the attributes. *)
let multi_read_call t fh segs =
  if segs = [] || List.length segs > Proto.max_read_segments then
    invalid_arg "Nfs.Client.multi_read: segment count out of range";
  let d =
    call t Proto.nfsproc_multi_read (fun e ->
        Proto.fh_encode e fh;
        Proto.read_segments_encode e segs)
  in
  status_check d;
  let attr = Proto.fattr_decode d in
  let n = Xdr.Dec.uint32 d in
  if n <> List.length segs then raise (Xdr.Decode_error "multi_read: segment count mismatch");
  (attr, d)

let multi_read t fh segs =
  let attr, d = multi_read_call t fh segs in
  let datas = List.map (fun _ -> Xdr.Dec.opaque d) segs in
  Xdr.Dec.expect_end d;
  (attr, datas)

(* Whole-file read with the size known up front (from a cached
   attribute): page reads are batched [Proto.max_read_segments] at a
   time into MULTI_READ calls — one credential check and one seal per
   batch instead of per page. Each segment is decoded straight out of
   the opened reply into the result, which is allocated at [size]
   once (and grown only if the file grew since the attribute was
   read). A short segment ends the file early (it shrank). *)
let read_whole t fh ~size =
  let buf = ref (Bytes.create size) and len = ref 0 in
  let append s ~off ~len:n =
    if !len + n > Bytes.length !buf then begin
      let grown = Bytes.create (max (2 * Bytes.length !buf) (!len + n)) in
      Bytes.blit !buf 0 grown 0 !len;
      buf := grown
    end;
    Bytes.blit_string s off !buf !len n;
    len := !len + n;
    n
  in
  let rec go off =
    if off < size then begin
      let npages =
        min Proto.max_read_segments ((size - off + Proto.max_data - 1) / Proto.max_data)
      in
      let segs = List.init npages (fun i -> (off + (i * Proto.max_data), Proto.max_data)) in
      let _, d = multi_read_call t fh segs in
      let got = List.fold_left (fun got _ -> got + Xdr.Dec.opaque_with d append) 0 segs in
      Xdr.Dec.expect_end d;
      if got = npages * Proto.max_data then go (off + got)
    end
  in
  go 0;
  if !len = Bytes.length !buf then Bytes.unsafe_to_string !buf else Bytes.sub_string !buf 0 !len

let statfs t fh =
  let d = call t Proto.nfsproc_statfs (fun e -> Proto.fh_encode e fh) in
  status_check d;
  let s = Proto.statfs_decode d in
  Xdr.Dec.expect_end d;
  s

let access t fh wanted =
  let d =
    call t Proto.nfsproc_access (fun e ->
        Proto.fh_encode e fh;
        Xdr.Enc.uint32 e wanted)
  in
  status_check d;
  let granted = Xdr.Dec.uint32 d in
  Xdr.Dec.expect_end d;
  granted

let read_all t fh =
  let buf = Buffer.create 8192 in
  let rec go off =
    let _, data = read t fh ~off ~count:Proto.max_data in
    if data <> "" then begin
      Buffer.add_string buf data;
      if String.length data = Proto.max_data then go (off + String.length data)
    end
  in
  go 0;
  Buffer.contents buf

let write_all t fh data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let n = min Proto.max_data (len - off) in
      ignore (write_sub t fh ~off data ~src_off:off ~len:n);
      go (off + n)
    end
  in
  go 0
