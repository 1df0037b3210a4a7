(* The FFS-like filesystem substrate: block device timing, inode
   management, file I/O through indirect blocks, directories, links,
   renames and handle generations. *)

module Clock = Simnet.Clock
module Stats = Simnet.Stats

let make_fs ?(nblocks = 4096) ?(ninodes = 256) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks ~block_size:8192 ()
  in
  Ffs.Fs.create ~dev ~ninodes

let expect_error expected f =
  match f () with
  | exception Ffs.Fs.Error (e, _) when e = expected -> ()
  | exception Ffs.Fs.Error (e, msg) ->
    Alcotest.failf "expected %s, got %s (%s)" (Ffs.Fs.error_to_string expected)
      (Ffs.Fs.error_to_string e) msg
  | _ -> Alcotest.failf "expected error %s" (Ffs.Fs.error_to_string expected)

let test_blockdev () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:64 ~block_size:512 ()
  in
  let b = Bytes.make 512 'x' in
  Ffs.Blockdev.write dev 3 b;
  Alcotest.(check bytes) "read back" b (Ffs.Blockdev.read dev 3);
  Alcotest.(check bytes) "unwritten zeroed" (Bytes.make 512 '\000') (Ffs.Blockdev.read dev 10);
  Alcotest.(check int) "reads" 2 (Stats.get (Ffs.Blockdev.stats dev) "disk.reads");
  Alcotest.(check int) "writes" 1 (Stats.get (Ffs.Blockdev.stats dev) "disk.writes");
  Alcotest.(check bool) "time advanced" true (Clock.now clock > 0.0);
  Alcotest.check_raises "oob" (Invalid_argument "Blockdev: block out of range") (fun () ->
      ignore (Ffs.Blockdev.read dev 64));
  Alcotest.check_raises "bad size" (Invalid_argument "Blockdev.write: bad block length")
    (fun () -> Ffs.Blockdev.write dev 0 (Bytes.create 5))

let test_seek_model () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:1024 ~block_size:8192 ()
  in
  (* Sequential run: one seek at most, then streaming. *)
  for i = 10 to 20 do ignore (Ffs.Blockdev.read dev i) done;
  let sequential_seeks = Stats.get (Ffs.Blockdev.stats dev) "disk.seeks" in
  (* Random access: a seek per I/O. *)
  List.iter (fun i -> ignore (Ffs.Blockdev.read dev i)) [ 500; 30; 700; 100 ];
  Alcotest.(check bool) "sequential cheap" true (sequential_seeks <= 1);
  Alcotest.(check int) "random seeks" (sequential_seeks + 4) (Stats.get (Ffs.Blockdev.stats dev) "disk.seeks")

let test_create_write_read () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let f = Ffs.Fs.create_file fs root "hello.txt" ~perms:0o644 ~uid:100 in
  Ffs.Fs.write fs f ~off:0 "hello, world";
  Alcotest.(check string) "read back" "hello, world" (Ffs.Fs.read fs f ~off:0 ~len:100);
  Alcotest.(check string) "offset read" "world" (Ffs.Fs.read fs f ~off:7 ~len:5);
  Alcotest.(check string) "past eof" "" (Ffs.Fs.read fs f ~off:50 ~len:10);
  let attr = Ffs.Fs.getattr fs f in
  Alcotest.(check int) "size" 12 attr.Ffs.Inode.a_size;
  Alcotest.(check int) "perms" 0o644 attr.Ffs.Inode.a_perms;
  Alcotest.(check int) "uid" 100 attr.Ffs.Inode.a_uid;
  Alcotest.(check bool) "is file" true (attr.Ffs.Inode.a_kind = Ffs.Inode.Reg)

let test_overwrite_and_extend () =
  let fs = make_fs () in
  let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o600 ~uid:0 in
  Ffs.Fs.write fs f ~off:0 "aaaaaaaaaa";
  Ffs.Fs.write fs f ~off:5 "BBB";
  Alcotest.(check string) "overwrite" "aaaaaBBBaa" (Ffs.Fs.read fs f ~off:0 ~len:10);
  Ffs.Fs.write fs f ~off:20 "tail";
  Alcotest.(check int) "sparse extend" 24 (Ffs.Fs.getattr fs f).Ffs.Inode.a_size;
  Alcotest.(check string) "hole zeroed" (String.make 10 '\000')
    (Ffs.Fs.read fs f ~off:10 ~len:10)

let test_large_file_indirect () =
  (* Span direct, single-indirect and double-indirect: 12 + 2048
     blocks of 8K = ~16.8 MB boundary; write 17 MB. *)
  let fs = make_fs ~nblocks:4096 () in
  let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "big" ~perms:0o600 ~uid:0 in
  let chunk = String.init 8192 (fun i -> Char.chr (i mod 251)) in
  let nchunks = (17 * 1024 * 1024) / 8192 in
  for i = 0 to nchunks - 1 do
    Ffs.Fs.write fs f ~off:(i * 8192) chunk
  done;
  Alcotest.(check int) "size" (nchunks * 8192) (Ffs.Fs.getattr fs f).Ffs.Inode.a_size;
  (* Spot-check content at each mapping regime. *)
  List.iter
    (fun fblock ->
      let got = Ffs.Fs.read fs f ~off:(fblock * 8192) ~len:8192 in
      Alcotest.(check string) (Printf.sprintf "block %d" fblock) chunk got)
    [ 0; 11; 12; 100; 2059; 2060; nchunks - 1 ];
  (* Truncate back to one block and confirm space is reclaimed. *)
  let free_before = (Ffs.Fs.statfs fs).Ffs.Fs.f_free_blocks in
  ignore (Ffs.Fs.setattr fs f ~size:8192 ());
  let free_after = (Ffs.Fs.statfs fs).Ffs.Fs.f_free_blocks in
  Alcotest.(check bool) "blocks freed" true (free_after > free_before + 2000);
  Alcotest.(check string) "first block survives" chunk (Ffs.Fs.read fs f ~off:0 ~len:8192)

let test_directories () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let docs = Ffs.Fs.mkdir fs root "docs" ~perms:0o755 ~uid:0 in
  let f = Ffs.Fs.create_file fs docs "paper.tex" ~perms:0o644 ~uid:0 in
  Alcotest.(check int) "lookup" f (Ffs.Fs.lookup fs docs "paper.tex");
  Alcotest.(check int) "resolve path" f (Ffs.Fs.resolve fs "/docs/paper.tex");
  Alcotest.(check int) "dot" docs (Ffs.Fs.lookup fs docs ".");
  Alcotest.(check int) "dotdot" root (Ffs.Fs.lookup fs docs "..");
  let names = List.map fst (Ffs.Fs.readdir fs docs) in
  Alcotest.(check (list string)) "entries" [ "."; ".."; "paper.tex" ] names;
  expect_error Ffs.Fs.ENOENT (fun () -> Ffs.Fs.lookup fs docs "missing");
  expect_error Ffs.Fs.ENOTDIR (fun () -> Ffs.Fs.lookup fs f "x");
  expect_error Ffs.Fs.EEXIST (fun () ->
      Ffs.Fs.create_file fs docs "paper.tex" ~perms:0o644 ~uid:0);
  expect_error Ffs.Fs.EISDIR (fun () -> Ffs.Fs.read fs docs ~off:0 ~len:1)

let test_remove_and_rmdir () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let d = Ffs.Fs.mkdir fs root "d" ~perms:0o755 ~uid:0 in
  let _f = Ffs.Fs.create_file fs d "f" ~perms:0o644 ~uid:0 in
  expect_error Ffs.Fs.ENOTEMPTY (fun () -> Ffs.Fs.rmdir fs root "d");
  expect_error Ffs.Fs.EISDIR (fun () -> Ffs.Fs.remove fs root "d");
  Ffs.Fs.remove fs d "f";
  Ffs.Fs.rmdir fs root "d";
  expect_error Ffs.Fs.ENOENT (fun () -> Ffs.Fs.lookup fs root "d");
  (* Inode slots are recycled. *)
  let free = (Ffs.Fs.statfs fs).Ffs.Fs.f_free_inodes in
  Alcotest.(check int) "inodes reclaimed" ((Ffs.Fs.statfs fs).Ffs.Fs.f_total_inodes - 1) free

let test_hard_links () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let f = Ffs.Fs.create_file fs root "a" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs f ~off:0 "shared";
  Ffs.Fs.link fs root "b" ~target:f;
  Alcotest.(check int) "nlink 2" 2 (Ffs.Fs.getattr fs f).Ffs.Inode.a_nlink;
  Ffs.Fs.remove fs root "a";
  Alcotest.(check string) "alive via b" "shared" (Ffs.Fs.read fs (Ffs.Fs.lookup fs root "b") ~off:0 ~len:6);
  Ffs.Fs.remove fs root "b";
  expect_error Ffs.Fs.ESTALE (fun () -> Ffs.Fs.getattr fs f)

let test_symlinks () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let s = Ffs.Fs.symlink fs root "lnk" ~target:"/docs/paper.tex" ~uid:0 in
  Alcotest.(check string) "readlink" "/docs/paper.tex" (Ffs.Fs.readlink fs s);
  let attr = Ffs.Fs.getattr fs s in
  Alcotest.(check bool) "kind" true (attr.Ffs.Inode.a_kind = Ffs.Inode.Symlink);
  let f = Ffs.Fs.create_file fs root "plain" ~perms:0o644 ~uid:0 in
  expect_error Ffs.Fs.EINVAL (fun () -> ignore (Ffs.Fs.readlink fs f))

let test_rename () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let a = Ffs.Fs.mkdir fs root "a" ~perms:0o755 ~uid:0 in
  let b = Ffs.Fs.mkdir fs root "b" ~perms:0o755 ~uid:0 in
  let f = Ffs.Fs.create_file fs a "f" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs f ~off:0 "data";
  Ffs.Fs.rename fs a "f" b "g";
  expect_error Ffs.Fs.ENOENT (fun () -> Ffs.Fs.lookup fs a "f");
  Alcotest.(check int) "moved" f (Ffs.Fs.lookup fs b "g");
  (* Rename over an existing file replaces it. *)
  let h = Ffs.Fs.create_file fs b "h" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs h ~off:0 "old";
  Ffs.Fs.rename fs b "g" b "h";
  Alcotest.(check string) "replaced" "data" (Ffs.Fs.read fs (Ffs.Fs.lookup fs b "h") ~off:0 ~len:4);
  (* Rename a directory across directories re-points "..". *)
  let sub = Ffs.Fs.mkdir fs a "sub" ~perms:0o755 ~uid:0 in
  Ffs.Fs.rename fs a "sub" b "sub";
  Alcotest.(check int) "dotdot re-pointed" b (Ffs.Fs.lookup fs sub "..")

let test_generations () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  let f = Ffs.Fs.create_file fs root "f" ~perms:0o644 ~uid:0 in
  let gen = Ffs.Fs.generation fs f in
  Alcotest.(check bool) "valid" true (Ffs.Fs.valid_handle fs ~ino:f ~gen);
  Ffs.Fs.remove fs root "f";
  Alcotest.(check bool) "freed invalid" false (Ffs.Fs.valid_handle fs ~ino:f ~gen);
  (* Recreate until the slot is reused; the generation must differ. *)
  let f2 = Ffs.Fs.create_file fs root "f2" ~perms:0o644 ~uid:0 in
  if f2 = f then begin
    Alcotest.(check bool) "old gen stale" false (Ffs.Fs.valid_handle fs ~ino:f ~gen);
    Alcotest.(check bool) "new gen valid" true
      (Ffs.Fs.valid_handle fs ~ino:f2 ~gen:(Ffs.Fs.generation fs f2))
  end

let test_enospc () =
  let fs = make_fs ~nblocks:16 () in
  let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o600 ~uid:0 in
  expect_error Ffs.Fs.ENOSPC (fun () ->
      for i = 0 to 63 do
        Ffs.Fs.write fs f ~off:(i * 8192) (String.make 8192 'x')
      done)

let test_name_validation () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  expect_error Ffs.Fs.EINVAL (fun () ->
      ignore (Ffs.Fs.create_file fs root "a/b" ~perms:0o644 ~uid:0));
  expect_error Ffs.Fs.EINVAL (fun () -> ignore (Ffs.Fs.create_file fs root "" ~perms:0o644 ~uid:0));
  expect_error Ffs.Fs.ENAMETOOLONG (fun () ->
      ignore (Ffs.Fs.create_file fs root (String.make 300 'n') ~perms:0o644 ~uid:0))

let test_setattr () =
  let fs = make_fs () in
  let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o644 ~uid:1 in
  let attr = Ffs.Fs.setattr fs f ~perms:0o400 ~uid:7 ~gid:9 () in
  Alcotest.(check int) "perms" 0o400 attr.Ffs.Inode.a_perms;
  Alcotest.(check int) "uid" 7 attr.Ffs.Inode.a_uid;
  Alcotest.(check int) "gid" 9 attr.Ffs.Inode.a_gid;
  Ffs.Fs.write fs f ~off:0 "0123456789";
  let attr = Ffs.Fs.setattr fs f ~size:4 () in
  Alcotest.(check int) "truncated" 4 attr.Ffs.Inode.a_size;
  Alcotest.(check string) "content cut" "0123" (Ffs.Fs.read fs f ~off:0 ~len:10)

let test_path_of () =
  let fs = make_fs () in
  let root = Ffs.Fs.root fs in
  Alcotest.(check (option string)) "root" (Some "/") (Ffs.Fs.path_of fs root);
  let docs = Ffs.Fs.mkdir fs root "docs" ~perms:0o755 ~uid:0 in
  let sub = Ffs.Fs.mkdir fs docs "drafts" ~perms:0o755 ~uid:0 in
  let f = Ffs.Fs.create_file fs sub "paper.tex" ~perms:0o644 ~uid:0 in
  Alcotest.(check (option string)) "nested file" (Some "/docs/drafts/paper.tex")
    (Ffs.Fs.path_of fs f);
  (* Renames update the path, including of files beneath a moved dir. *)
  Ffs.Fs.rename fs docs "drafts" root "final";
  Alcotest.(check (option string)) "after dir rename" (Some "/final/paper.tex")
    (Ffs.Fs.path_of fs f);
  Ffs.Fs.rename fs sub "paper.tex" sub "camera-ready.tex";
  Alcotest.(check (option string)) "after file rename" (Some "/final/camera-ready.tex")
    (Ffs.Fs.path_of fs f);
  Ffs.Fs.remove fs sub "camera-ready.tex";
  Alcotest.(check (option string)) "freed inode has no path" None (Ffs.Fs.path_of fs f);
  (* A path has at most 64 components. *)
  let deep = ref root in
  for depth = 1 to 65 do
    deep := Ffs.Fs.mkdir fs !deep "d" ~perms:0o755 ~uid:0;
    if depth = 64 then
      Alcotest.(check (option string)) "64 components" (Some (String.concat "" (List.init 64 (fun _ -> "/d"))))
        (Ffs.Fs.path_of fs !deep)
  done;
  Alcotest.(check (option string)) "65 components have no path" None (Ffs.Fs.path_of fs !deep)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write/read roundtrip at random offsets" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_bound 30000) (string_size (int_range 1 5000))))
    (fun (off, data) ->
      let fs = make_fs ~nblocks:64 () in
      let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o600 ~uid:0 in
      Ffs.Fs.write fs f ~off data;
      Ffs.Fs.read fs f ~off ~len:(String.length data) = data)

let prop_dir_add_remove =
  QCheck.Test.make ~name:"create n files, readdir sees n" ~count:30
    (QCheck.make QCheck.Gen.(int_range 1 40))
    (fun n ->
      let fs = make_fs () in
      let root = Ffs.Fs.root fs in
      for i = 0 to n - 1 do
        ignore (Ffs.Fs.create_file fs root (Printf.sprintf "f%03d" i) ~perms:0o644 ~uid:0)
      done;
      List.length (Ffs.Fs.readdir fs root) = n + 2)

(* Reference-model property: a random sequence of writes, truncates
   and extends against one file must match a plain byte-array model at
   every read. This exercises bmap across direct/indirect boundaries,
   read-modify-write, sparse holes and truncation interactions. *)
let prop_file_matches_byte_model =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun off s -> `Write (off, s)) (int_bound 150_000) (string_size (int_range 1 3000));
          map (fun size -> `Truncate size) (int_bound 150_000);
          map2 (fun off len -> `Read (off, len)) (int_bound 160_000) (int_bound 4000);
        ])
  in
  QCheck.Test.make ~name:"file ops match byte-array model" ~count:30
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 3 25) op_gen))
    (fun ops ->
      let fs = make_fs ~nblocks:256 () in
      let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "model" ~perms:0o600 ~uid:0 in
      let model = ref Bytes.empty in
      let ensure n =
        if Bytes.length !model < n then begin
          let bigger = Bytes.make n '\000' in
          Bytes.blit !model 0 bigger 0 (Bytes.length !model);
          model := bigger
        end
      in
      List.for_all
        (fun op ->
          match op with
          | `Write (off, s) ->
            Ffs.Fs.write fs f ~off s;
            ensure (off + String.length s);
            Bytes.blit_string s 0 !model off (String.length s);
            true
          | `Truncate size ->
            ignore (Ffs.Fs.setattr fs f ~size ());
            let fresh = Bytes.make size '\000' in
            Bytes.blit !model 0 fresh 0 (min size (Bytes.length !model));
            model := fresh;
            true
          | `Read (off, len) ->
            let got = Ffs.Fs.read fs f ~off ~len in
            let avail = max 0 (min len (Bytes.length !model - off)) in
            let expect = if avail = 0 then "" else Bytes.sub_string !model off avail in
            got = expect)
        ops)

(* Two scheduler processes miss on the same pointer block of a freshly
   loaded volume: each reads it from disk, and the read yields. The
   second to finish must keep the cached copy the first installed —
   and updated — rather than replace it with its own stale decode. *)
let test_concurrent_ptr_block_miss () =
  let bs = 8192 in
  let fs = make_fs () in
  let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "big" ~perms:0o644 ~uid:0 in
  let block i = String.make bs (Char.chr (65 + i)) in
  for i = 0 to Ffs.Inode.n_direct do
    Ffs.Fs.write fs ino ~off:(i * bs) (block i)
  done;
  let clock = Clock.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats:(Stats.create ()) ~nblocks:4096
      ~block_size:bs ()
  in
  let fs = Ffs.Fs.load ~dev (Ffs.Fs.save fs) in
  let sched = Simnet.Sched.create ~clock in
  Simnet.Sched.attach_clock sched;
  let a = Ffs.Inode.n_direct + 1 and b = Ffs.Inode.n_direct + 2 in
  List.iter
    (fun i ->
      (* discfs-lint: allow races "the two writers share the volume on purpose: this reproduces the concurrent pointer-block miss" *)
      Simnet.Sched.spawn sched (fun () -> Ffs.Fs.write fs ino ~off:(i * bs) (block i)))
    [ a; b ];
  Simnet.Sched.run sched;
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "block %d reads back" i)
        (block i)
        (Ffs.Fs.read fs ino ~off:(i * bs) ~len:bs))
    [ a; b ]

let suite =
  [
    Alcotest.test_case "blockdev basics" `Quick test_blockdev;
    Alcotest.test_case "seek model" `Quick test_seek_model;
    Alcotest.test_case "create/write/read" `Quick test_create_write_read;
    Alcotest.test_case "overwrite and sparse extend" `Quick test_overwrite_and_extend;
    Alcotest.test_case "large file through indirects" `Slow test_large_file_indirect;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "remove and rmdir" `Quick test_remove_and_rmdir;
    Alcotest.test_case "hard links" `Quick test_hard_links;
    Alcotest.test_case "symlinks" `Quick test_symlinks;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "handle generations" `Quick test_generations;
    Alcotest.test_case "out of space" `Quick test_enospc;
    Alcotest.test_case "name validation" `Quick test_name_validation;
    Alcotest.test_case "setattr" `Quick test_setattr;
    Alcotest.test_case "path_of" `Quick test_path_of;
    Alcotest.test_case "concurrent pointer-block miss" `Quick test_concurrent_ptr_block_miss;
    QCheck_alcotest.to_alcotest prop_write_read_roundtrip;
    QCheck_alcotest.to_alcotest prop_dir_add_remove;
    QCheck_alcotest.to_alcotest prop_file_matches_byte_model;
  ]
