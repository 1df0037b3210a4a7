(* Persistence: filesystem images and DisCFS server state survive a
   "server restart" (fresh processes, same disk image + credential
   store). *)

module Proto = Nfs.Proto
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Server = Discfs.Server

let make_dev ?(nblocks = 4096) () =
  let clock = Simnet.Clock.create () in
  let stats = Simnet.Stats.create () in
  Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks ~block_size:8192 ()

let test_fs_image_roundtrip () =
  let dev = make_dev () in
  let fs = Ffs.Fs.create ~dev ~ninodes:128 in
  let root = Ffs.Fs.root fs in
  let docs = Ffs.Fs.mkdir fs root "docs" ~perms:0o755 ~uid:3 in
  let f = Ffs.Fs.create_file fs docs "paper.tex" ~perms:0o640 ~uid:7 in
  (* Write enough to reach the indirect blocks (pointer-cache flush
     correctness is the interesting part of save). *)
  let chunk = String.init 8192 (fun i -> Char.chr (i mod 251)) in
  for i = 0 to 19 do
    Ffs.Fs.write fs f ~off:(i * 8192) chunk
  done;
  let lnk = Ffs.Fs.symlink fs root "link" ~target:"/docs/paper.tex" ~uid:0 in
  Ffs.Fs.link fs root "hard" ~target:f;
  let gen = Ffs.Fs.generation fs f in
  let image = Ffs.Fs.save fs in
  (* Restore onto a fresh device ("new machine, same disk"). *)
  let dev2 = make_dev () in
  let fs2 = Ffs.Fs.load ~dev:dev2 image in
  Alcotest.(check int) "resolve" f (Ffs.Fs.resolve fs2 "/docs/paper.tex");
  for i = 0 to 19 do
    Alcotest.(check string)
      (Printf.sprintf "block %d content" i)
      chunk
      (Ffs.Fs.read fs2 f ~off:(i * 8192) ~len:8192)
  done;
  let attr = Ffs.Fs.getattr fs2 f in
  Alcotest.(check int) "perms" 0o640 attr.Ffs.Inode.a_perms;
  Alcotest.(check int) "uid" 7 attr.Ffs.Inode.a_uid;
  Alcotest.(check int) "nlink" 2 attr.Ffs.Inode.a_nlink;
  Alcotest.(check int) "generation survives" gen (Ffs.Fs.generation fs2 f);
  Alcotest.(check string) "symlink" "/docs/paper.tex" (Ffs.Fs.readlink fs2 lnk);
  Alcotest.(check (option string)) "path tracking survives" (Some "/docs/paper.tex")
    (Ffs.Fs.path_of fs2 f);
  (* The restored volume keeps working: more writes, new files. *)
  let g = Ffs.Fs.create_file fs2 docs "new.txt" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs2 g ~off:0 "post-restore";
  Alcotest.(check string) "writable after restore" "post-restore"
    (Ffs.Fs.read fs2 g ~off:0 ~len:100);
  (* Free-space accounting carried over consistently. *)
  let s1 = Ffs.Fs.statfs fs and s2 = Ffs.Fs.statfs fs2 in
  Alcotest.(check bool) "free blocks consistent" true
    (s2.Ffs.Fs.f_free_blocks <= s1.Ffs.Fs.f_free_blocks);
  (* A reboot happens in place: whoever holds [fs] sees identical
     state, with a cold pointer-block cache that warms on first touch. *)
  let image = Ffs.Fs.save fs in
  Ffs.Fs.reboot fs;
  Alcotest.(check bool) "reboot preserves the image" true (String.equal image (Ffs.Fs.save fs));
  let reads = Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.reads" in
  Alcotest.(check string) "indirect data readable after reboot" chunk
    (Ffs.Fs.read fs f ~off:(19 * 8192) ~len:8192);
  Alcotest.(check int) "pointer block and data block both from disk" (reads + 2)
    (Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.reads");
  ignore (Ffs.Fs.read fs f ~off:(18 * 8192) ~len:8192);
  Alcotest.(check int) "pointer block warm again" (reads + 3) (Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.reads");
  (* The next update to the once-cold pointer block is charged as a
     fresh dirtying, as on a freshly loaded volume. *)
  let writes = Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.writes" in
  Ffs.Fs.write fs f ~off:(20 * 8192) chunk;
  Alcotest.(check int) "data block and pointer write-back" (writes + 2)
    (Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.writes");
  let fs3 = Ffs.Fs.load ~dev:(make_dev ()) (Ffs.Fs.save fs) in
  Alcotest.(check string) "post-reboot growth survives a save" chunk
    (Ffs.Fs.read fs3 f ~off:(20 * 8192) ~len:8192)

let test_fs_image_errors () =
  let dev = make_dev () in
  let fs = Ffs.Fs.create ~dev ~ninodes:64 in
  let image = Ffs.Fs.save fs in
  (match Ffs.Fs.load ~dev:(make_dev ()) "garbage" with
  | exception Ffs.Fs.Bad_image _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  (let truncated = String.sub image 0 (String.length image / 2) in
   match Ffs.Fs.load ~dev:(make_dev ()) truncated with
   | exception Ffs.Fs.Bad_image _ -> ()
   | _ -> Alcotest.fail "truncated image accepted");
  (match Ffs.Fs.load ~dev:(make_dev ~nblocks:64 ()) image with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "geometry mismatch accepted")

let test_server_restart () =
  (* Day 1: a server accumulates files and credentials. *)
  let d = Cluster.make ~seed:"restart" () in
  let admin_client = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin_client in
  let fh, _, _ = CC.create admin_client ~dir:root "durable.txt" () in
  CC.write_all admin_client fh "survives restarts";
  let bob_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal bob))
      ~conditions:
        (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";"
           fh.Proto.ino)
      ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let withdrawn =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal bob))
      ~conditions:
        (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RW\";"
           fh.Proto.ino)
      ()
  in
  (match CC.submit_credential bob withdrawn with Ok _ -> () | Error e -> Alcotest.fail e);
  (match
     CC.revoke_credential admin_client ~fingerprint:(Keynote.Assertion.fingerprint withdrawn)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mallory_key = Cluster.new_identity d in
  (match
     CC.revoke_key admin_client
       ~principal:(Keynote.Assertion.principal_of_pub mallory_key.Dcrypto.Dsa.pub)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let disk_image = Ffs.Fs.save (Cluster.fs d) in
  let server_state = Server.save_state (Cluster.node_server d 0) in

  (* Day 2: new process. Same keys (from disk in reality), same disk
     image, same credential store. *)
  let clock = Simnet.Clock.create () in
  let stats = Simnet.Stats.create () in
  let link = Simnet.Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:16384 ~block_size:8192 ()
  in
  let fs = Ffs.Fs.load ~dev disk_image in
  let server_key = Server.server_key (Cluster.node_server d 0) in
  let store =
    Server.create_store ~admin:(Cluster.admin_identity d).Dcrypto.Dsa.pub
      ~frontends:[ server_key.Dcrypto.Dsa.pub ] ~trace:Trace.null
  in
  let server =
    Server.create ~fs ~store ~server_key ~drbg:(Dcrypto.Drbg.create ~seed:"restart-day2") ()
  in
  (match Server.load_state server server_state with
  | Ok n -> Alcotest.(check bool) "credentials restored" true (n >= 1)
  | Error e -> Alcotest.fail e);
  let rpc = Oncrpc.Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
  Server.attach_rpc server rpc;
  (* Bob reconnects (fresh IKE) and still has access — without
     resubmitting anything. *)
  let bob2 =
    Raw_conn.connect ~link ~rpc ~server ~identity:bob_key
      ~drbg:(Dcrypto.Drbg.create ~seed:"bob-day2") ~uid:100
  in
  let fh2 = { Proto.ino = fh.Proto.ino; gen = Ffs.Fs.generation fs fh.Proto.ino } in
  let _, data = Nfs.Client.read bob2.Raw_conn.nfs fh2 ~off:0 ~count:100 in
  Alcotest.(check string) "file and credential survived" "survives restarts" data;
  (* So did the revoked credential's fingerprint. *)
  if Raw_conn.submit bob2 withdrawn then Alcotest.fail "revoked credential accepted after restart";
  (* The revocation list survived too. *)
  let mallory =
    Raw_conn.connect ~link ~rpc ~server ~identity:mallory_key
      ~drbg:(Dcrypto.Drbg.create ~seed:"mallory-day2") ~uid:666
  in
  let cred_mallory =
    Keynote.Assertion.issue ~key:mallory_key ~drbg:(Dcrypto.Drbg.create ~seed:"m")
      ~licensees:
        (Printf.sprintf "\"%s\"" (Keynote.Assertion.principal_of_pub mallory_key.Dcrypto.Dsa.pub))
      ~conditions:"true;" ()
  in
  if Raw_conn.submit mallory cred_mallory then Alcotest.fail "revoked key accepted after restart"

let test_server_state_corruption () =
  let d = Cluster.make ~seed:"corrupt" () in
  (match Server.load_state (Cluster.node_server d 0) "not xdr" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt state accepted")

let prop_image_roundtrip =
  QCheck.Test.make ~name:"image roundtrip preserves random trees" ~count:15
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) (pair (int_bound 4) small_string)))
    (fun spec ->
      let dev = make_dev () in
      let fs = Ffs.Fs.create ~dev ~ninodes:128 in
      let root = Ffs.Fs.root fs in
      let dirs = ref [ root ] in
      List.iteri
        (fun i (kind, content) ->
          let parent = List.nth !dirs (i mod List.length !dirs) in
          let name = Printf.sprintf "n%d" i in
          if kind = 0 then dirs := Ffs.Fs.mkdir fs parent name ~perms:0o755 ~uid:0 :: !dirs
          else begin
            let f = Ffs.Fs.create_file fs parent name ~perms:0o644 ~uid:0 in
            Ffs.Fs.write fs f ~off:0 content
          end)
        spec;
      let image = Ffs.Fs.save fs in
      let fs2 = Ffs.Fs.load ~dev:(make_dev ()) image in
      (* Compare full recursive listings and file contents. *)
      let rec walk fs dino =
        List.concat_map
          (fun (name, ino) ->
            if name = "." || name = ".." then []
            else begin
              let attr = Ffs.Fs.getattr fs ino in
              match attr.Ffs.Inode.a_kind with
              | Ffs.Inode.Dir -> (name, "<dir>") :: walk fs ino
              | Ffs.Inode.Reg ->
                [ (name, Ffs.Fs.read fs ino ~off:0 ~len:attr.Ffs.Inode.a_size) ]
              | Ffs.Inode.Symlink -> [ (name, Ffs.Fs.readlink fs ino) ]
            end)
          (Ffs.Fs.readdir fs dino)
      in
      walk fs root = walk fs2 (Ffs.Fs.root fs2))

let test_audit_cap_after_load () =
  (* A restored trail already at the cap: the next decision halves it
     (keeping the newest half) and lands on top, and the result
     persists unchanged. *)
  let d = Cluster.make ~seed:"audit-cap" () in
  let loaded =
    List.init 10_000 (fun i ->
        { Server.au_time = float_of_int (10_000 - i); au_peer = "peer"; au_op = "getattr";
          au_ino = i; au_value = "R"; au_granted = true })
  in
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 0;
  Xdr.Enc.uint32 e 0;
  Xdr.Enc.uint32 e (List.length loaded);
  List.iter
    (fun a ->
      Xdr.Enc.uint64 e (Int64.bits_of_float a.Server.au_time);
      Xdr.Enc.string e a.Server.au_peer;
      Xdr.Enc.string e a.Server.au_op;
      Xdr.Enc.uint32 e a.Server.au_ino;
      Xdr.Enc.string e a.Server.au_value;
      Xdr.Enc.uint32 e 1)
    loaded;
  (match Server.load_state (Cluster.node_server d 0) (Xdr.Enc.to_string e) with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "%d credentials from an empty store" n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "loaded trail" 10_000 (List.length (Server.audit_log (Cluster.node_server d 0)));
  let fs = Cluster.fs d in
  let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "secret" ~perms:0o600 ~uid:0 in
  let eve = CC.attach d ~identity:(Cluster.new_identity d) ~uid:99 () in
  (match CC.read eve { Proto.ino; gen = Ffs.Fs.generation fs ino } ~off:0 ~count:16 with
  | _ -> Alcotest.fail "read without a credential granted"
  | exception Proto.Nfs_error code -> Alcotest.(check int) "denied" Proto.nfserr_acces code);
  let trail = Server.audit_log (Cluster.node_server d 0) in
  Alcotest.(check int) "halved, plus the denial" 5_001 (List.length trail);
  (match trail with
  | newest :: rest ->
    Alcotest.(check string) "newest is the read" "read" newest.Server.au_op;
    Alcotest.(check bool) "newest was denied" false newest.Server.au_granted;
    Alcotest.(check int) "newest target" ino newest.Server.au_ino;
    Alcotest.(check (list int)) "the newer half survives, in order" (List.init 5_000 Fun.id)
      (List.map (fun a -> a.Server.au_ino) rest)
  | [] -> Alcotest.fail "empty trail");
  let state = Server.save_state (Cluster.node_server d 0) in
  let d2 = Cluster.make ~seed:"audit-cap-reload" () in
  (match Server.load_state (Cluster.node_server d2 0) state with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "survives save/load" true (Server.audit_log (Cluster.node_server d2 0) = trail);
  Alcotest.(check string) "save bytes are stable" state (Server.save_state (Cluster.node_server d2 0))

let suite =
  [
    Alcotest.test_case "fs image roundtrip" `Quick test_fs_image_roundtrip;
    Alcotest.test_case "fs image error handling" `Quick test_fs_image_errors;
    Alcotest.test_case "server restart keeps credentials" `Quick test_server_restart;
    Alcotest.test_case "corrupt server state rejected" `Quick test_server_state_corruption;
    Alcotest.test_case "audit cap after a loaded full trail" `Quick test_audit_cap_after_load;
    QCheck_alcotest.to_alcotest prop_image_roundtrip;
  ]
