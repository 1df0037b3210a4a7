(* Quickstart: the paper's introductory example.

   "If Alice wants to read Bob's paper, Bob only has to issue the
   appropriate credential and send it to Alice (e.g., via email)."

   Here Bob is an internal user who created a file on the DisCFS
   server; Alice is an external user the server has never heard of.
   Run with: dune exec examples/quickstart.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Assertion = Keynote.Assertion

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  (* A DisCFS server (the paper's machine "Alice", confusingly — we
     name machines after their users here) with an administrator. *)
  let d = Cluster.make ~seed:"quickstart" () in
  say "DisCFS server up; administrator key %s..."
    (String.sub (Cluster.admin_principal d) 0 28);

  (* Bob is an internal user: the administrator delegates the root
     directory to him. *)
  let bob_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let root = CC.root bob in
  let bob_cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal bob))
      ~conditions:
        (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";"
           root.Nfs.Proto.ino)
      ~comment:"root dir for Bob" ()
  in
  (match CC.submit_credential bob bob_cred with
  | Ok fp -> say "Bob submitted his credential (fingerprint %s)" fp
  | Error e -> failwith e);

  (* Bob writes his paper using the DisCFS create call, which hands
     back a credential for the new file. *)
  let fh, _, paper_cred = CC.create bob ~dir:root "paper.tex" () in
  CC.write_all bob
    fh
    "\\title{Secure and Flexible Global File Sharing}\n\\begin{abstract}...\n";
  say "Bob stored paper.tex (inode %d) and holds an RWX credential for it"
    fh.Nfs.Proto.ino;

  (* Alice is EXTERNAL: no account, unknown to the server. Bob issues
     her a read-only credential — no administrator involved. *)
  let alice_key = Cluster.new_identity d in
  let alice = CC.attach d ~identity:alice_key ~uid:2001 () in
  say "Alice attached; server only sees her public key %s..."
    (String.sub (CC.principal alice) 0 28);

  (* Before any credential: the tree presents itself as mode 000. *)
  let attr = CC.getattr alice fh in
  say "Before credentials, Alice sees paper.tex as mode %03o" (attr.Nfs.Proto.mode land 0o777);

  let for_alice =
    Assertion.issue ~key:bob_key ~drbg:(Cluster.drbg d)
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal alice))
      ~conditions:
        (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";"
           fh.Nfs.Proto.ino)
      ~comment:"read access to my paper - Bob" ()
  in
  say "Bob mails Alice this credential:@.---@.%s---" (Assertion.to_text for_alice);

  (* Alice presents Bob's chain: his server-issued credential is
     already at the server; she submits her delegation. *)
  (match CC.submit_credential alice for_alice with
  | Ok _ -> say "Alice's credential accepted"
  | Error e -> failwith e);
  (* Bob's own paper credential also travels with the chain; it was
     admitted when the server issued it at create time. *)
  ignore paper_cred;

  let _, contents = CC.read alice fh ~off:0 ~count:100 in
  say "Alice reads: %S" (String.sub contents 0 46);

  (* But she cannot write... *)
  (match CC.write alice fh ~off:0 "scribble" with
  | exception Nfs.Proto.Nfs_error s -> say "Alice's write is refused: %s" (Nfs.Proto.status_to_string s)
  | _ -> failwith "write should have been denied");

  (* The server logged who did what, by key. *)
  let log = Discfs.Server.audit_log (Cluster.node_server d 0) in
  say "@.Server audit trail (%d entries), most recent first:" (List.length log);
  List.iteri
    (fun i e ->
      if i < 5 then
        say "  [%6.3fs] %s %s ino=%d -> %s" e.Discfs.Server.au_time e.Discfs.Server.au_peer
          e.Discfs.Server.au_op e.Discfs.Server.au_ino
          (if e.Discfs.Server.au_granted then e.Discfs.Server.au_value else "DENIED"))
    log;
  say "@.quickstart: OK"
