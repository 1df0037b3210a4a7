(* NFSv2 end-to-end over the simulated wire: client stubs -> XDR ->
   RPC -> server dispatch -> FFS. Uses the CFS-NE deployment (plain
   NFS), plus hook tests for the authorization points DisCFS uses. *)

module Proto = Nfs.Proto
module Rpc = Oncrpc.Rpc
module Attr_cache = Nfs.Cache.Make (Nfs.Client)

let deploy () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  (d, client, root)

let expect_nfs_error status f =
  match f () with
  | exception Proto.Nfs_error s when s = status -> ()
  | exception Proto.Nfs_error s ->
    Alcotest.failf "expected %s, got %s" (Proto.status_to_string status) (Proto.status_to_string s)
  | _ -> Alcotest.failf "expected %s" (Proto.status_to_string status)

let test_mount_and_null () =
  let d, client, root = deploy () in
  let rpc = Rpc.connect ~link:d.Cfs.Cfs_ne.link d.Cfs.Cfs_ne.rpc in
  ignore (Rpc.call rpc ~prog:Proto.nfs_prog ~vers:Proto.nfs_vers ~proc:Proto.nfsproc_null ignore);
  let attr = Nfs.Client.getattr client root in
  Alcotest.(check bool) "root is dir" true (attr.Proto.ftype = Proto.NFDIR);
  expect_nfs_error Proto.nfserr_noent (fun () -> ignore (Nfs.Client.mount client "/missing"))

let test_create_write_read () =
  let _, client, root = deploy () in
  let fh, attr = Nfs.Client.create_file client root "hello.txt" Proto.sattr_none in
  Alcotest.(check int) "new file empty" 0 attr.Proto.size;
  ignore (Nfs.Client.write client fh ~off:0 "hello over the wire");
  let attr2, data = Nfs.Client.read client fh ~off:6 ~count:100 in
  Alcotest.(check string) "read back" "over the wire" data;
  Alcotest.(check int) "size updated" 19 attr2.Proto.size;
  let fh2, _ = Nfs.Client.lookup client root "hello.txt" in
  Alcotest.(check int) "lookup same inode" fh.Proto.ino fh2.Proto.ino

let test_big_transfer () =
  let _, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "big" Proto.sattr_none in
  let data = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
  Nfs.Client.write_all client fh data;
  Alcotest.(check bool) "read_all roundtrip" true (Nfs.Client.read_all client fh = data)

let test_directories_over_wire () =
  let _, client, root = deploy () in
  let dir, _ = Nfs.Client.mkdir client root "docs" Proto.sattr_none in
  let _ = Nfs.Client.create_file client dir "a" Proto.sattr_none in
  let _ = Nfs.Client.create_file client dir "b" Proto.sattr_none in
  let names = List.map fst (Nfs.Client.readdir client dir) in
  Alcotest.(check (list string)) "entries" [ "."; ".."; "a"; "b" ] names;
  let fh, _ = Nfs.Client.lookup client dir "a" in
  ignore (Nfs.Client.write client fh ~off:0 "via path");
  Nfs.Client.remove client dir "a";
  expect_nfs_error Proto.nfserr_noent (fun () -> ignore (Nfs.Client.lookup client dir "a"));
  expect_nfs_error Proto.nfserr_notempty (fun () -> Nfs.Client.rmdir client root "docs");
  Nfs.Client.remove client dir "b";
  Nfs.Client.rmdir client root "docs"

let test_readdir_paging () =
  let _, client, root = deploy () in
  let dir, _ = Nfs.Client.mkdir client root "many" Proto.sattr_none in
  for i = 0 to 499 do
    ignore (Nfs.Client.create_file client dir (Printf.sprintf "file-%03d" i) Proto.sattr_none)
  done;
  let names = List.map fst (Nfs.Client.readdir client dir) in
  (* 500 files + . + .. require multiple READDIR round trips. *)
  Alcotest.(check int) "all entries through paging" 502 (List.length names)

(* Paging must neither lose nor repeat an entry when names differ in
   length: a page ends at the first entry that does not fit, and each
   entry's cookie is its position + 1. 80 files, 64 of them with
   200-character names and every fifth one short, fill several pages
   of both READDIR and READDIRPLUS with a long entry at each edge. *)
let test_readdir_paging_mixed_lengths () =
  let _, client, root = deploy () in
  let dir, _ = Nfs.Client.mkdir client root "mixed" Proto.sattr_none in
  let names =
    List.init 80 (fun i ->
        if i mod 5 = 4 then Printf.sprintf "s%02d" i
        else Printf.sprintf "l%02d%s" i (String.make 197 'n'))
  in
  List.iter (fun n -> ignore (Nfs.Client.create_file client dir n Proto.sattr_none)) names;
  let all = "." :: ".." :: names in
  let check how listed =
    let times n = List.length (List.filter (String.equal n) listed) in
    let tag n = if String.length n > 3 then String.sub n 0 3 else n in
    let wrong = List.filter (fun n -> times n <> 1) all in
    let unknown = List.filter (fun n -> not (List.mem n all)) listed in
    if wrong <> [] || unknown <> [] then
      Alcotest.failf "%s: not listed exactly once: %s; listed but never created: %d" how
        (String.concat " " (List.map (fun n -> Printf.sprintf "%s x%d" (tag n) (times n)) wrong))
        (List.length unknown)
  in
  check "readdir" (List.map fst (Nfs.Client.readdir client dir));
  check "readdirplus"
    (List.map (fun de -> de.Proto.p_name) (Nfs.Client.readdirplus client dir))

let test_rename_link_symlink () =
  let _, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "orig" Proto.sattr_none in
  ignore (Nfs.Client.write client fh ~off:0 "content");
  Nfs.Client.rename client ~src:(root, "orig") ~dst:(root, "renamed");
  let fh2, _ = Nfs.Client.lookup client root "renamed" in
  Alcotest.(check int) "same file" fh.Proto.ino fh2.Proto.ino;
  Nfs.Client.link client ~target:fh2 ~dir:root "hardlink";
  let attr = Nfs.Client.getattr client fh2 in
  Alcotest.(check int) "nlink" 2 attr.Proto.nlink;
  Nfs.Client.symlink client root "sym" ~target:"/renamed";
  let sfh, sattr = Nfs.Client.lookup client root "sym" in
  Alcotest.(check bool) "symlink type" true (sattr.Proto.ftype = Proto.NFLNK);
  Alcotest.(check string) "readlink" "/renamed" (Nfs.Client.readlink client sfh)

let test_setattr_truncate () =
  let _, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "t" Proto.sattr_none in
  ignore (Nfs.Client.write client fh ~off:0 "0123456789");
  let attr =
    Nfs.Client.setattr client fh { Proto.sattr_none with Proto.s_size = Some 4; s_mode = Some 0o600 }
  in
  Alcotest.(check int) "truncated" 4 attr.Proto.size;
  Alcotest.(check int) "mode" 0o600 (attr.Proto.mode land 0o777)

let test_stale_handle () =
  let _, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "gone" Proto.sattr_none in
  Nfs.Client.remove client root "gone";
  expect_nfs_error Proto.nfserr_stale (fun () -> ignore (Nfs.Client.getattr client fh))

let test_statfs () =
  let _, client, root = deploy () in
  let s = Nfs.Client.statfs client root in
  Alcotest.(check int) "block size" 8192 s.Proto.bsize;
  Alcotest.(check bool) "free blocks sane" true (s.Proto.bfree > 0 && s.Proto.bfree <= s.Proto.total_blocks)

let test_hooks_authorize () =
  let d = Cfs.Cfs_ne.deploy () in
  (* Deny all writes, allow reads. *)
  Nfs.Server.set_hooks d.Cfs.Cfs_ne.nfs_server
    {
      Nfs.Server.authorize =
        (fun ~conn:_ ~fh:_ ~op ->
          match op with
          | Nfs.Server.Write | Nfs.Server.Create -> Error Proto.nfserr_acces
          | _ -> Ok ());
      present_attr = (fun ~conn:_ a -> { a with Proto.mode = a.Proto.mode land lnot 0o222 });
      rights = (fun ~conn:_ ~fh:_ -> 5 (* r-x *));
    };
  let client, root = Cfs.Cfs_ne.connect d () in
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (Nfs.Client.create_file client root "nope" Proto.sattr_none));
  let attr = Nfs.Client.getattr client root in
  Alcotest.(check int) "write bits masked by presentation" 0 (attr.Proto.mode land 0o222)

let test_conn_uid_reaches_fs () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d ~uid:4242 () in
  let _, attr = Nfs.Client.create_file client root "mine" Proto.sattr_none in
  Alcotest.(check int) "file owned by caller uid" 4242 attr.Proto.uid

let test_wire_traffic_counted () =
  let d, client, root = deploy () in
  let before = Simnet.Stats.get d.Cfs.Cfs_ne.stats "link.bytes" in
  let fh, _ = Nfs.Client.create_file client root "w" Proto.sattr_none in
  ignore (Nfs.Client.write client fh ~off:0 (String.make 8192 'x'));
  let delta = Simnet.Stats.get d.Cfs.Cfs_ne.stats "link.bytes" - before in
  Alcotest.(check bool) "write moved >8K over the wire" true (delta > 8192)

let test_access_procedure () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  (* Default hooks grant everything. *)
  Alcotest.(check int) "all granted" Proto.access_all
    (Nfs.Client.access client root Proto.access_all);
  Alcotest.(check int) "mask respected" Proto.access_read
    (Nfs.Client.access client root Proto.access_read);
  (* With r-x rights, modify bits disappear. *)
  Nfs.Server.set_hooks d.Cfs.Cfs_ne.nfs_server
    {
      Nfs.Server.authorize = (fun ~conn:_ ~fh:_ ~op:_ -> Ok ());
      present_attr = (fun ~conn:_ a -> a);
      rights = (fun ~conn:_ ~fh:_ -> 5);
    };
  let granted = Nfs.Client.access client root Proto.access_all in
  Alcotest.(check int) "read+lookup+execute only"
    (Proto.access_read lor Proto.access_lookup lor Proto.access_execute)
    granted

let test_client_cache () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  let clock = d.Cfs.Cfs_ne.clock in
  let cache = Attr_cache.create ~client ~clock ~stats:d.Cfs.Cfs_ne.stats () in
  let fh, _ = Nfs.Client.create_file client root "cached.txt" Proto.sattr_none in
  ignore (Nfs.Client.write client fh ~off:0 "v1");
  (* Repeated getattrs hit the cache and stop generating RPCs. *)
  let rpcs_before = Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" in
  ignore (Attr_cache.getattr cache fh);
  for _ = 1 to 9 do ignore (Attr_cache.getattr cache fh) done;
  Alcotest.(check int) "one RPC for ten getattrs" 1
    (Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" - rpcs_before);
  Alcotest.(check int) "nine hits" 9 (Simnet.Stats.get d.Cfs.Cfs_ne.stats "cache.attr.hits");
  (* TTL expiry: advance the virtual clock past 3 s. *)
  Simnet.Clock.advance clock 4.0;
  let rpcs_before = Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" in
  ignore (Attr_cache.getattr cache fh);
  Alcotest.(check int) "expired entry refetches" 1
    (Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" - rpcs_before);
  (* Name cache. *)
  let rpcs_before = Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" in
  ignore (Attr_cache.lookup cache root "cached.txt");
  ignore (Attr_cache.lookup cache root "cached.txt");
  Alcotest.(check int) "one RPC for two lookups" 1
    (Simnet.Stats.get d.Cfs.Cfs_ne.stats "rpc.calls" - rpcs_before);
  (* Writes through the cache keep attributes current. *)
  let attr = Attr_cache.write cache fh ~off:0 "longer content" in
  Alcotest.(check int) "size tracked" 14 attr.Proto.size;
  Alcotest.(check int) "cached getattr agrees" 14 (Attr_cache.getattr cache fh).Proto.size;
  (* Remove drops the name entry. *)
  Attr_cache.remove cache root "cached.txt";
  (match Attr_cache.lookup cache root "cached.txt" with
  | exception Proto.Nfs_error s -> Alcotest.(check int) "gone" Proto.nfserr_noent s
  | _ -> Alcotest.fail "removed name still resolves")

let test_client_cache_staleness () =
  (* The documented trade-off: another client's change is invisible
     until the TTL lapses. *)
  let d = Cfs.Cfs_ne.deploy () in
  let client_a, root = Cfs.Cfs_ne.connect d () in
  let client_b, _ = Cfs.Cfs_ne.connect d () in
  let cache =
    Attr_cache.create ~client:client_a ~clock:d.Cfs.Cfs_ne.clock ~stats:d.Cfs.Cfs_ne.stats ()
  in
  let fh, _ = Nfs.Client.create_file client_a root "shared" Proto.sattr_none in
  ignore (Attr_cache.getattr cache fh);
  ignore (Nfs.Client.write client_b fh ~off:0 "surprise");
  Alcotest.(check int) "stale size within TTL" 0 (Attr_cache.getattr cache fh).Proto.size;
  Simnet.Clock.advance d.Cfs.Cfs_ne.clock 4.0;
  Alcotest.(check int) "fresh after TTL" 8 (Attr_cache.getattr cache fh).Proto.size

(* A server on a device the test can fault, driven one raw datagram
   at a time through [Wire_oracle.dispatch] (so a datagram sent twice is a
   retransmission, answered from the duplicate-request cache). *)
let raw_testbed () =
  let clock = Simnet.Clock.create () and stats = Simnet.Stats.create () in
  let cost = Simnet.Cost.default in
  let dev = Ffs.Blockdev.create ~clock ~cost ~stats ~nblocks:1024 ~block_size:8192 () in
  let fs = Ffs.Fs.create ~dev ~ninodes:64 in
  let rpc = Rpc.server ~clock ~cost ~stats in
  Nfs.Server.attach (Nfs.Server.create ~fs ()) rpc;
  let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o644 ~uid:0 in
  (dev, fs, rpc, ino, { Proto.ino; gen = Ffs.Fs.generation fs ino })

let nfs_datagram ~xid ~proc args =
  let e = Xdr.Enc.create () in
  args e;
  Rpc.encode_call ~xid ~prog:Proto.nfs_prog ~vers:Proto.nfs_vers ~proc ~uid:0
    (Xdr.Enc.to_string e)

let dispatch rpc datagram =
  match Wire_oracle.dispatch rpc ~conn:{ Rpc.peer = ""; uid = 0 } datagram with
  | Some reply -> reply
  | None -> Alcotest.fail "server down"

let read_datagram ~xid fh ~off ~count =
  nfs_datagram ~xid ~proc:Proto.nfsproc_read (fun e ->
      Proto.fh_encode e fh;
      Xdr.Enc.uint32 e off;
      Xdr.Enc.uint32 e count;
      Xdr.Enc.uint32 e count)

let read_data reply =
  match Wire_oracle.decode_reply reply with
  | _, Error _ -> Alcotest.fail "READ faulted"
  | _, Ok results ->
    let d = Xdr.Dec.of_string results in
    Alcotest.(check int) "status" Proto.nfs_ok (Xdr.Dec.uint32 d);
    ignore (Proto.fattr_decode d);
    let data = Xdr.Dec.opaque d in
    Xdr.Dec.expect_end d;
    data

let test_read_across_hole () =
  let _, fs, rpc, ino, fh = raw_testbed () in
  (* Block 0 and block 2 hold data; block 1 is a hole. *)
  let a = String.make 8192 'a' and c = String.make 8192 'c' in
  Ffs.Fs.write fs ino ~off:0 a;
  Ffs.Fs.write fs ino ~off:16384 c;
  let into_hole = read_datagram ~xid:1 fh ~off:4000 ~count:8192 in
  let out_of_hole = read_datagram ~xid:2 fh ~off:12000 ~count:8192 in
  let r1 = dispatch rpc into_hole and r2 = dispatch rpc out_of_hole in
  Alcotest.(check string) "data, then the hole"
    (String.make 4192 'a' ^ String.make 4000 '\000')
    (read_data r1);
  Alcotest.(check string) "the hole, then data"
    (String.make 4384 '\000' ^ String.make 3808 'c')
    (read_data r2);
  (* Filling the hole allocates a block; the stored replies, and the
     zeros every other hole reads as, stay as they were. *)
  Ffs.Fs.write fs ino ~off:8192 (String.make 8192 'b');
  Alcotest.(check string) "replay into the hole unchanged" r1 (dispatch rpc into_hole);
  Alcotest.(check string) "replay out of the hole unchanged" r2 (dispatch rpc out_of_hole);
  Alcotest.(check string) "a fresh read sees the write"
    (String.make 4192 'a' ^ String.make 4000 'b')
    (read_data (dispatch rpc (read_datagram ~xid:3 fh ~off:4000 ~count:8192)));
  let other = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "g" ~perms:0o644 ~uid:0 in
  ignore (Ffs.Fs.setattr fs other ~size:20000 ());
  Alcotest.(check string) "another file's hole still reads as zeros"
    (String.make 8192 '\000')
    (Ffs.Fs.read fs other ~off:5000 ~len:8192)

let test_multi_read_page_fault () =
  let dev, fs, rpc, ino, fh = raw_testbed () in
  let stats = Ffs.Blockdev.stats dev in
  Ffs.Fs.write fs ino ~off:0 (String.make (4 * 8192) 'm');
  let fault = Simnet.Fault.create ~seed:"multi-read-eio" () in
  Ffs.Blockdev.set_fault dev (Some fault);
  (* No buffer cache: each page is one physical read, so the second
     page is the second disk operation from here. *)
  Simnet.Fault.script_disk fault [ (Simnet.Fault.disk_ops fault + 1, Simnet.Fault.Fail_read) ];
  let errors = Simnet.Stats.get stats "disk.io_errors" in
  let reply =
    dispatch rpc
      (nfs_datagram ~xid:1 ~proc:Proto.nfsproc_multi_read (fun e ->
           Proto.fh_encode e fh;
           Proto.read_segments_encode e [ (0, 8192); (8192, 8192); (16384, 8192) ]))
  in
  Alcotest.(check int) "the second page failed" (errors + 1)
    (Simnet.Stats.get stats "disk.io_errors");
  (match Wire_oracle.decode_reply reply with
  | _, Ok results ->
    let e = Xdr.Enc.create () in
    Xdr.Enc.uint32 e Proto.nfserr_io;
    Alcotest.(check string) "status-only NFSERR_IO" (Xdr.Enc.to_string e) results
  | _, Error _ -> Alcotest.fail "MULTI_READ faulted at the RPC level");
  (* The server stays usable. *)
  Alcotest.(check string) "a later read succeeds" (String.make 8192 'm')
    (read_data (dispatch rpc (read_datagram ~xid:2 fh ~off:8192 ~count:8192)))

let prop_write_read_wire =
  QCheck.Test.make ~name:"wire write/read roundtrip" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_bound 20000) (string_size (int_range 1 9000))))
    (fun (off, data) ->
      let _, client, root = deploy () in
      let fh, _ = Nfs.Client.create_file client root "q" Proto.sattr_none in
      (* NFSv2 writes are capped at 8K per call; chunk like a client. *)
      let rec put o rest =
        if rest <> "" then begin
          let n = min Proto.max_data (String.length rest) in
          ignore (Nfs.Client.write client fh ~off:o (String.sub rest 0 n));
          put (o + n) (String.sub rest n (String.length rest - n))
        end
      in
      put off data;
      let rec get o acc need =
        if need = 0 then acc
        else begin
          let n = min Proto.max_data need in
          let _, chunk = Nfs.Client.read client fh ~off:o ~count:n in
          get (o + String.length chunk) (acc ^ chunk) (need - String.length chunk)
        end
      in
      get off "" (String.length data) = data)

let suite =
  [
    Alcotest.test_case "mount and null" `Quick test_mount_and_null;
    Alcotest.test_case "create/write/read over wire" `Quick test_create_write_read;
    Alcotest.test_case "large transfer chunked" `Quick test_big_transfer;
    Alcotest.test_case "directories over wire" `Quick test_directories_over_wire;
    Alcotest.test_case "readdir paging" `Quick test_readdir_paging;
    Alcotest.test_case "readdir paging, mixed name lengths" `Quick
      test_readdir_paging_mixed_lengths;
    Alcotest.test_case "rename, link, symlink" `Quick test_rename_link_symlink;
    Alcotest.test_case "setattr truncate" `Quick test_setattr_truncate;
    Alcotest.test_case "stale handle" `Quick test_stale_handle;
    Alcotest.test_case "statfs" `Quick test_statfs;
    Alcotest.test_case "authorization hooks" `Quick test_hooks_authorize;
    Alcotest.test_case "uid propagation" `Quick test_conn_uid_reaches_fs;
    Alcotest.test_case "wire traffic counted" `Quick test_wire_traffic_counted;
    Alcotest.test_case "ACCESS procedure" `Quick test_access_procedure;
    Alcotest.test_case "client attr/name cache" `Quick test_client_cache;
    Alcotest.test_case "client cache staleness window" `Quick test_client_cache_staleness;
    Alcotest.test_case "read across a hole; stored replies keep their bytes" `Quick
      test_read_across_hole;
    Alcotest.test_case "multi_read page fault is a status-only EIO" `Quick
      test_multi_read_page_fault;
    QCheck_alcotest.to_alcotest prop_write_read_wire;
  ]
