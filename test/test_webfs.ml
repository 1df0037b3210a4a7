(* The WebFS-style ACL comparator (paper §3.1): key-based ACLs with
   mandatory administrator involvement. *)

module Proto = Nfs.Proto

let setup () =
  let d = Webfs.Deploy.make ~seed:"test-webfs" () in
  (* A file to protect, created directly on the volume. *)
  let ino = Ffs.Fs.create_file d.Webfs.Deploy.fs (Ffs.Fs.root d.Webfs.Deploy.fs) "doc.txt" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write d.Webfs.Deploy.fs ino ~off:0 "acl protected";
  (d, ino)

(* A fresh user's principal, and an NFS client whose connection
   carries it as the authenticated peer — what the IKE channel
   establishes — over the plaintext channel. *)
let connect d =
  let principal =
    Keynote.Assertion.principal_of_pub (Dcrypto.Dsa.generate_key d.Webfs.Deploy.drbg).Dcrypto.Dsa.pub
  in
  let rpc =
    Oncrpc.Rpc.connect ~link:d.Webfs.Deploy.link ~peer:principal ~uid:1000 d.Webfs.Deploy.rpc
  in
  let nfs = Nfs.Client.create rpc in
  ignore (Nfs.Client.mount nfs "/");
  (nfs, principal)

let test_acl_unit () =
  let acl = Webfs.Acl.create () in
  Alcotest.check_raises "grant needs registration"
    (Invalid_argument "Acl.grant: unknown user (ACL systems need accounts first)") (fun () ->
      Webfs.Acl.grant acl ~ino:3 ~principal:"dsa-hex:ab" 4);
  Webfs.Acl.register_user acl ~principal:"dsa-hex:AB";
  (* Registration is case-insensitive: the lower-case grant is accepted. *)
  Webfs.Acl.grant acl ~ino:3 ~principal:"dsa-hex:ab" 6;
  Alcotest.(check int) "lookup" 6 (Webfs.Acl.lookup acl ~ino:3 ~principal:"DSA-HEX:AB");
  Alcotest.(check int) "other ino" 0 (Webfs.Acl.lookup acl ~ino:4 ~principal:"dsa-hex:ab");
  Webfs.Acl.grant acl ~ino:3 ~principal:"dsa-hex:ab" 4;
  Alcotest.(check int) "overwrite" 4 (Webfs.Acl.lookup acl ~ino:3 ~principal:"dsa-hex:ab");
  Alcotest.(check bool) "state grows with users" true (Webfs.Acl.state_bytes acl > 0)

let test_enforcement () =
  let d, ino = setup () in
  let nfs, principal = connect d in
  let fh = { Proto.ino; gen = Ffs.Fs.generation d.Webfs.Deploy.fs ino } in
  (* No registration, no ACL entry: denied. *)
  (match Nfs.Client.read nfs fh ~off:0 ~count:4 with
  | exception Proto.Nfs_error s -> Alcotest.(check int) "denied" Proto.nfserr_acces s
  | _ -> Alcotest.fail "unregistered user read the file");
  (* Two administrator actions later... *)
  Webfs.Server.admin_register d.Webfs.Deploy.server ~principal;
  Webfs.Server.admin_grant d.Webfs.Deploy.server ~ino ~principal ~bits:4;
  let _, data = Nfs.Client.read nfs fh ~off:0 ~count:13 in
  Alcotest.(check string) "granted after admin work" "acl protected" data;
  (* R only: writes denied; presentation shows r--. *)
  (match Nfs.Client.write nfs fh ~off:0 "x" with
  | exception Proto.Nfs_error s -> Alcotest.(check int) "write denied" Proto.nfserr_acces s
  | _ -> Alcotest.fail "write should fail");
  let attr = Nfs.Client.getattr nfs fh in
  Alcotest.(check int) "mode r--" 0o444 (attr.Proto.mode land 0o777);
  Alcotest.(check int) "admin did 2 things" 2 (Webfs.Server.admin_ops d.Webfs.Deploy.server)

let test_no_delegation () =
  (* The structural difference from DisCFS: an ACL user cannot pass
     access on. There is no user-side operation at all — only the
     admin can extend the list. (This test documents the limitation
     rather than exercising an API that deliberately doesn't exist.) *)
  let d, ino = setup () in
  let nfs_alice, alice_p = connect d in
  let nfs_bob, _bob_p = connect d in
  Webfs.Server.admin_register d.Webfs.Deploy.server ~principal:alice_p;
  Webfs.Server.admin_grant d.Webfs.Deploy.server ~ino ~principal:alice_p ~bits:7;
  let fh = { Proto.ino; gen = Ffs.Fs.generation d.Webfs.Deploy.fs ino } in
  ignore (Nfs.Client.read nfs_alice fh ~off:0 ~count:4);
  (* Bob holds no entry; nothing Alice can do changes that. *)
  (match Nfs.Client.read nfs_bob fh ~off:0 ~count:4 with
  | exception Proto.Nfs_error s -> Alcotest.(check int) "bob denied" Proto.nfserr_acces s
  | _ -> Alcotest.fail "bob read without an ACL entry")

let test_state_scales_with_users () =
  let d, ino = setup () in
  let before = Webfs.Acl.state_bytes (Webfs.Server.acl d.Webfs.Deploy.server) in
  for i = 0 to 49 do
    let u = Dcrypto.Dsa.generate_key d.Webfs.Deploy.drbg in
    let p = Keynote.Assertion.principal_of_pub u.Dcrypto.Dsa.pub in
    Webfs.Server.admin_register d.Webfs.Deploy.server ~principal:p;
    Webfs.Server.admin_grant d.Webfs.Deploy.server ~ino ~principal:p ~bits:4;
    ignore i
  done;
  let after = Webfs.Acl.state_bytes (Webfs.Server.acl d.Webfs.Deploy.server) in
  Alcotest.(check bool) "50 users cost >10KB of a-priori state" true (after - before > 10000);
  Alcotest.(check int) "100 admin interventions" 100 (Webfs.Server.admin_ops d.Webfs.Deploy.server)

let suite =
  [
    Alcotest.test_case "acl unit semantics" `Quick test_acl_unit;
    Alcotest.test_case "end-to-end enforcement" `Quick test_enforcement;
    Alcotest.test_case "no delegation possible" `Quick test_no_delegation;
    Alcotest.test_case "server state scales with users" `Quick test_state_scales_with_users;
  ]
