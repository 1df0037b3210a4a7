(* Full-system DisCFS tests: the paper's scenarios end-to-end through
   IKE, ESP, NFS and KeyNote. *)

module Proto = Nfs.Proto
module Assertion = Keynote.Assertion
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Server = Discfs.Server

let expect_nfs_error status f =
  match f () with
  | exception Proto.Nfs_error s when s = status -> ()
  | exception Proto.Nfs_error s ->
    Alcotest.failf "expected %s, got %s" (Proto.status_to_string status) (Proto.status_to_string s)
  | _ -> Alcotest.failf "expected %s" (Proto.status_to_string status)

let quoted c = Printf.sprintf "\"%s\"" (CC.principal c)

(* A deployment with a file created by the admin, for access tests. *)
let setup ?cache_size ?hour () =
  let d = Cluster.make ?cache_size ?hour ~seed:"test-discfs" () in
  let admin_client = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let file_fh, _, _ = CC.create admin_client ~dir:(CC.root admin_client) "paper.tex" in
  CC.write_all admin_client file_fh "Secure and Flexible Global File Sharing";
  (d, admin_client, file_fh)

let handle_conditions fh value =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino value

let test_admin_has_full_access () =
  let _, admin_client, file_fh = setup () in
  (* POLICY trusts the admin key directly: no credentials needed. *)
  let _, data = CC.read admin_client file_fh ~off:0 ~count:100 in
  Alcotest.(check string) "admin reads" "Secure and Flexible Global File Sharing" data;
  ignore (CC.write admin_client file_fh ~off:0 "X")

let test_stranger_denied_and_sees_000 () =
  let d, _, file_fh = setup () in
  let mallory = CC.attach d ~identity:(Cluster.new_identity d) ~uid:777 () in
  (* Reads and writes are refused... *)
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read mallory file_fh ~off:0 ~count:10));
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.write mallory file_fh ~off:0 "overwrite"));
  (* ...and the attached tree presents itself as mode 000 owned by the
     attach uid (paper §5). *)
  let attr = CC.getattr mallory (CC.root mallory) in
  Alcotest.(check int) "mode 000" 0 (attr.Proto.mode land 0o777);
  Alcotest.(check int) "uid from attach" 777 attr.Proto.uid

let test_figure5_credential_grants_access () =
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob)
      ~conditions:(handle_conditions file_fh "RWX") ~comment:"testdir" ()
  in
  (match CC.submit_credential bob cred with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let _, data = CC.read bob file_fh ~off:0 ~count:6 in
  Alcotest.(check string) "bob reads after credential" "Secure" data;
  ignore (CC.write bob file_fh ~off:0 "Shared");
  (* Permissions now present as rwx for this connection. *)
  let attr = CC.getattr bob file_fh in
  Alcotest.(check int) "mode rwx" 0o777 (attr.Proto.mode land 0o777)

let test_read_only_credential () =
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let _, data = CC.read bob file_fh ~off:0 ~count:6 in
  Alcotest.(check string) "read ok" "Secure" data;
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.write bob file_fh ~off:0 "nope"));
  let attr = CC.getattr bob file_fh in
  Alcotest.(check int) "mode r--" 0o444 (attr.Proto.mode land 0o777)

let test_figure1_delegation () =
  (* Administrator -> Bob (RW) -> Alice (R); Alice's access requires
     both credentials at the server. *)
  let d, _, file_fh = setup () in
  let bob_key = Cluster.new_identity d in
  let alice_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let alice = CC.attach d ~identity:alice_key ~uid:200 () in
  let cred_bob =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "RW") ()
  in
  let cred_alice =
    Assertion.issue ~key:bob_key ~drbg:(Cluster.drbg d) ~licensees:(quoted alice)
      ~conditions:(handle_conditions file_fh "R") ()
  in
  (* Alice submits only her credential: the chain to POLICY is broken. *)
  (match CC.submit_credential alice cred_alice with Ok _ -> () | Error e -> Alcotest.fail e);
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read alice file_fh ~off:0 ~count:6));
  (* With Bob's credential also present, the chain closes. *)
  (match CC.submit_credential alice cred_bob with Ok _ -> () | Error e -> Alcotest.fail e);
  let _, data = CC.read alice file_fh ~off:0 ~count:6 in
  Alcotest.(check string) "alice reads via chain" "Secure" data;
  (* Alice got R only: writes stay denied (no amplification). *)
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.write alice file_fh ~off:0 "nope"));
  (* Bob himself can write with his RW credential. *)
  ignore (CC.write bob file_fh ~off:0 "Bob was here")

let test_create_returns_credential () =
  let d, _, _ = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  (* Bob needs W+X on the root directory to create files in it. *)
  let root = CC.root bob in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions root "RWX") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  (* Plain NFS CREATE succeeds but leaves Bob without access to the
     new file — the paper's create problem (§5). *)
  let orphan_fh, _ =
    CC.nfs_create bob root "orphan.txt" Proto.sattr_none
  in
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.write bob orphan_fh ~off:0 "locked out"));
  (* The DisCFS create procedure returns a fresh RWX credential. *)
  let fh, attr, new_cred = CC.create bob ~dir:root "report.txt" in
  Alcotest.(check bool) "file created" true (attr.Proto.ftype = Proto.NFREG);
  Alcotest.(check bool) "credential verifies" true (Assertion.verify new_cred);
  Alcotest.(check (option string)) "comment names the file" (Some "report.txt")
    new_cred.Assertion.comment;
  ignore (CC.write bob fh ~off:0 "mine to write");
  let _, data = CC.read bob fh ~off:0 ~count:100 in
  Alcotest.(check string) "roundtrip" "mine to write" data;
  (* And Bob can delegate the new file onward. *)
  let carol_key = Cluster.new_identity d in
  let carol = CC.attach d ~identity:carol_key ~uid:300 () in
  let bob_key_unused = () in
  ignore bob_key_unused;
  Alcotest.(check bool) "mkdir also returns credential" true
    (let _, _, c = CC.mkdir bob ~dir:root "subdir" in
     Assertion.verify c);
  ignore carol

let test_delegation_of_created_file () =
  let d, _, _ = setup () in
  let bob_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let root = CC.root bob in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions root "RWX") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let fh, _, _file_cred = CC.create bob ~dir:root "shared.txt" in
  CC.write_all bob fh "from bob with love";
  (* Bob delegates R on his new file to Alice by issuing a credential
     against the server-issued one. *)
  let alice_key = Cluster.new_identity d in
  let alice = CC.attach d ~identity:alice_key ~uid:200 () in
  let delegation =
    Assertion.issue ~key:bob_key ~drbg:(Cluster.drbg d) ~licensees:(quoted alice)
      ~conditions:(handle_conditions fh "R") ~comment:"for alice" ()
  in
  (match CC.submit_credential alice delegation with Ok _ -> () | Error e -> Alcotest.fail e);
  (* The server-issued credential is already in the server's session,
     so Alice's chain is complete: server_key -> bob -> alice. *)
  let _, data = CC.read alice fh ~off:0 ~count:8 in
  Alcotest.(check string) "alice reads bob's file" "from bob" data;
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.write alice fh ~off:0 "no"))

let test_revocation () =
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  ignore (CC.read bob file_fh ~off:0 ~count:6);
  (* Only the authorizer (or server) may revoke. *)
  (match CC.revoke_credential bob ~fingerprint:(Assertion.fingerprint cred) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bob revoked admin's credential");
  (* The admin connection revokes it; the policy cache is flushed. *)
  let admin_conn = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  (match CC.revoke_credential admin_conn ~fingerprint:(Assertion.fingerprint cred) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob file_fh ~off:0 ~count:6))

(* A revoked credential stays revoked: resubmitting the same text is
   refused with an error naming the revocation, and the refusal
   outlives a crash of the frontend. *)
let test_revoked_credential_stays_revoked () =
  let d, admin_client, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  ignore (CC.read bob file_fh ~off:0 ~count:6);
  (match CC.revoke_credential admin_client ~fingerprint:(Assertion.fingerprint cred) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let refused what =
    (match CC.submit_credential bob cred with
    | Ok _ -> Alcotest.failf "%s: revoked credential accepted again" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": the error names the revocation") true
        (Str_replace.replace e ~from:"revoked" ~into:"" <> e));
    expect_nfs_error Proto.nfserr_acces (fun () ->
        ignore (CC.read bob file_fh ~off:0 ~count:6))
  in
  refused "resubmitted";
  Cluster.crash_and_restart d 0;
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob file_fh ~off:0 ~count:6));
  refused "after a crash"

let test_key_revocation () =
  let d, _, file_fh = setup () in
  let bob_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let alice_key = Cluster.new_identity d in
  let alice = CC.attach d ~identity:alice_key ~uid:200 () in
  let cred_bob =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "RW") ()
  in
  let cred_alice =
    Assertion.issue ~key:bob_key ~drbg:(Cluster.drbg d) ~licensees:(quoted alice)
      ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential alice cred_bob with Ok _ -> () | Error e -> Alcotest.fail e);
  (match CC.submit_credential alice cred_alice with Ok _ -> () | Error e -> Alcotest.fail e);
  ignore (CC.read alice file_fh ~off:0 ~count:6);
  (* Non-admin cannot revoke keys. *)
  (match CC.revoke_key alice ~principal:(CC.principal bob) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alice revoked a key");
  (* Admin declares Bob's key bad: credentials authored by it vanish,
     and new submissions of them are refused. *)
  let admin_conn = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  (match CC.revoke_key admin_conn ~principal:(CC.principal bob) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read alice file_fh ~off:0 ~count:6));
  (match CC.submit_credential alice cred_alice with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "revoked authorizer accepted");
  (* The revoked key itself has no authority either, even though the
     admin-issued credential licensing it is still in the session
     (regression: revocation must cover the requester role too). *)
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob file_fh ~off:0 ~count:6))

let test_cross_user_isolation () =
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let carol = CC.attach d ~identity:(Cluster.new_identity d) ~uid:300 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "RWX") ()
  in
  (* Carol gets hold of Bob's credential and submits it — but her
     requests are signed by her own key, so it grants her nothing. *)
  (match CC.submit_credential carol cred with Ok _ -> () | Error e -> Alcotest.fail e);
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read carol file_fh ~off:0 ~count:6));
  (* Bob, of course, can use it (it is already in the session). *)
  let _, data = CC.read bob file_fh ~off:0 ~count:6 in
  Alcotest.(check string) "bob ok" "Secure" data

let test_time_of_day_policy () =
  let hour = ref 11 in
  let d, _, file_fh = setup ~hour:(fun () -> !hour) () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob)
      ~conditions:
        (Printf.sprintf
           "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") && (hour < 9 || hour >= 17) -> \"R\";"
           file_fh.Proto.ino)
      ~comment:"leisure file: office hours blocked" ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  (* 11:00 — denied. *)
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob file_fh ~off:0 ~count:6));
  (* 20:00 — the cached "false" result must not leak across the hour
     change... the cache is keyed per handle, so we flush via a fresh
     credential submission, as the prototype would on any policy
     change. *)
  hour := 20;
  Discfs.Policy_cache.flush (Server.cache (Cluster.node_server d 0));
  let _, data = CC.read bob file_fh ~off:0 ~count:6 in
  Alcotest.(check string) "evening access" "Secure" data

let test_policy_cache_behaviour () =
  let d, _, file_fh = setup ~cache_size:128 () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let cache = Server.cache (Cluster.node_server d 0) in
  let h0 = Discfs.Policy_cache.hits cache in
  for _ = 1 to 50 do
    ignore (CC.read bob file_fh ~off:0 ~count:8)
  done;
  let hits = Discfs.Policy_cache.hits cache - h0 in
  Alcotest.(check bool) "repeated reads mostly hit" true (hits >= 90);
  (* Submitting a credential flushes the cache. *)
  let other =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:"app_domain == \"x\" -> \"R\";" ()
  in
  (match CC.submit_credential bob other with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "flushed" 0 (Discfs.Policy_cache.size cache)

let test_audit_log () =
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob file_fh ~off:0 ~count:6));
  let log = Server.audit_log (Cluster.node_server d 0) in
  Alcotest.(check bool) "denial recorded" true
    (List.exists
       (fun e ->
         e.Server.au_op = "read" && e.Server.au_ino = file_fh.Proto.ino
         && not e.Server.au_granted)
       log);
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  ignore (CC.read bob file_fh ~off:0 ~count:6);
  let log = Server.audit_log (Cluster.node_server d 0) in
  Alcotest.(check bool) "grant recorded with value" true
    (List.exists
       (fun e -> e.Server.au_op = "read" && e.Server.au_granted && e.Server.au_value = "R")
       log)

let test_esp_on_the_wire () =
  let d, admin_client, file_fh = setup () in
  let before = Simnet.Stats.get (Cluster.stats d) "esp.packets" in
  ignore (CC.read admin_client file_fh ~off:0 ~count:8);
  Alcotest.(check bool) "reads travel inside ESP" true
    (Simnet.Stats.get (Cluster.stats d) "esp.packets" > before)

let test_lookup_needs_execute () =
  let d, _, _ = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let root = CC.root bob in
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.lookup bob root "paper.tex"));
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions root "X") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  (* X alone allows lookup but not readdir. *)
  ignore (CC.lookup bob root "paper.tex");
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.readdir bob root))

let test_access_procedure_uses_keynote () =
  (* The ACCESS extension answers straight from the compliance
     checker: a client can probe its rights without trying (and
     failing) the operations - the "standard NFS authentication
     framework" integration the paper aims for (Â§1). *)
  let d, _, file_fh = setup () in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  Alcotest.(check int) "nothing before credentials" 0
    (CC.access bob file_fh Proto.access_all);
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "R credential -> ACCESS_READ only" Proto.access_read
    (CC.access bob file_fh Proto.access_all);
  let cred2 =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions file_fh "RWX") ()
  in
  (match CC.submit_credential bob cred2 with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "RWX credential -> everything" Proto.access_all
    (CC.access bob file_fh Proto.access_all)

let test_subtree_credential_via_path () =
  (* Extension: instead of one credential per handle, a single
     credential can cover a whole subtree with the condition
     language's regex operator over the PATH attribute — including
     files created after the credential was issued. *)
  let d, admin_client, _ = setup () in
  let root = CC.root admin_client in
  let docs, _, _ = CC.mkdir admin_client ~dir:root "docs" in
  let inside, _, _ = CC.create admin_client ~dir:docs "inside.txt" in
  CC.write_all admin_client inside "in the docs subtree";
  let outside, _, _ = CC.create admin_client ~dir:root "outside.txt" in
  CC.write_all admin_client outside "not shared";
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob)
      ~conditions:"(app_domain == \"DisCFS\") && (PATH ~= \"^/docs(/|$)\") -> \"RX\";"
      ~comment:"the whole docs subtree" ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  (* Inside: listable and readable. *)
  let _, data = CC.read bob inside ~off:0 ~count:11 in
  Alcotest.(check string) "reads inside subtree" "in the docs" data;
  ignore (CC.lookup bob docs "inside.txt");
  (* Outside: denied. *)
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob outside ~off:0 ~count:4));
  (* A file created in the subtree *later* is covered automatically. *)
  let later, _, _ = CC.create admin_client ~dir:docs "later.txt" in
  CC.write_all admin_client later "late arrival";
  let _, data = CC.read bob later ~off:0 ~count:4 in
  Alcotest.(check string) "new file covered" "late" data;
  (* Moving a file out of the subtree withdraws access. *)
  CC.rename admin_client ~src:(docs, "later.txt") ~dst:(root, "moved.txt");
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob later ~off:0 ~count:4))

(* The paper (§5) notes that bare inode numbers are not globally
   unique handles: a credential for a deleted file would cover
   whatever reuses its inode. Reproduce the weakness with the
   paper-faithful default, then show the inode+generation fix. *)
let handle_reuse ~strict () =
  (* A tiny inode table so the freed inode is recycled within a few
     allocations (the allocator's cursor must wrap around). *)
  let d = Cluster.make ~strict_handles:strict ~ninodes:8 ~seed:"handle-reuse" () in
  let admin_client = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin_client in
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  (match
     CC.submit_credential bob
       (Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions root "RWX") ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Bob creates a file (getting an RWX credential for it), then the
     admin deletes it and creates a secret file reusing the inode. *)
  let fh, _, _ = CC.create bob ~dir:root "scratch.txt" in
  CC.remove admin_client root "scratch.txt";
  let rec recreate () =
    let s, _, _ = CC.create admin_client ~dir:root "secret.txt" in
    if s.Proto.ino = fh.Proto.ino then s
    else begin
      CC.remove admin_client root "secret.txt";
      recreate ()
    end
  in
  let secret = recreate () in
  CC.write_all admin_client secret "top secret";
  (* Bob's stale RWX credential names the same HANDLE. *)
  match CC.read bob secret ~off:0 ~count:10 with
  | _, data -> `Read data
  | exception Proto.Nfs_error s -> `Denied s

let test_handle_reuse_weakness () =
  (* Paper-faithful mode: the stale credential leaks the new file. *)
  match handle_reuse ~strict:false () with
  | `Read data -> Alcotest.(check string) "inode reuse leaks (as the paper warns)" "top secret" data
  | `Denied _ -> Alcotest.fail "expected the documented weakness to reproduce"

let test_handle_reuse_fixed_by_generations () =
  match handle_reuse ~strict:true () with
  | `Denied s -> Alcotest.(check int) "generation binding denies" Proto.nfserr_acces s
  | `Read _ -> Alcotest.fail "generation-bound credential leaked across inode reuse"

let suite =
  [
    Alcotest.test_case "admin full access via policy" `Quick test_admin_has_full_access;
    Alcotest.test_case "stranger denied, sees mode 000" `Quick test_stranger_denied_and_sees_000;
    Alcotest.test_case "figure-5 credential grants RWX" `Quick test_figure5_credential_grants_access;
    Alcotest.test_case "read-only credential" `Quick test_read_only_credential;
    Alcotest.test_case "figure-1 delegation chain" `Quick test_figure1_delegation;
    Alcotest.test_case "create returns credential" `Quick test_create_returns_credential;
    Alcotest.test_case "delegating a created file" `Quick test_delegation_of_created_file;
    Alcotest.test_case "credential revocation" `Quick test_revocation;
    Alcotest.test_case "revoked credential stays revoked" `Quick
      test_revoked_credential_stays_revoked;
    Alcotest.test_case "key revocation" `Quick test_key_revocation;
    Alcotest.test_case "credentials are not bearer tokens" `Quick test_cross_user_isolation;
    Alcotest.test_case "time-of-day policy" `Quick test_time_of_day_policy;
    Alcotest.test_case "policy cache" `Quick test_policy_cache_behaviour;
    Alcotest.test_case "audit log" `Quick test_audit_log;
    Alcotest.test_case "ESP on the wire" `Quick test_esp_on_the_wire;
    Alcotest.test_case "lookup needs execute" `Quick test_lookup_needs_execute;
    Alcotest.test_case "ACCESS answers from KeyNote" `Quick test_access_procedure_uses_keynote;
    Alcotest.test_case "subtree credentials via PATH" `Quick test_subtree_credential_via_path;
    Alcotest.test_case "inode-reuse weakness (paper-faithful)" `Quick test_handle_reuse_weakness;
    Alcotest.test_case "inode-reuse fixed by strict handles" `Quick test_handle_reuse_fixed_by_generations;
  ]
