(* Revocation (paper §4.1): "since the credentials related to a
   specific file have to be examined by the DisCFS server where the
   file is stored, revocation ... can be done by notifying the server
   about bad keys or credentials."

   A contractor's laptop is stolen; the administrator revokes the
   contractor's key, which kills every chain through it.
   Run with: dune exec examples/revocation.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Assertion = Keynote.Assertion
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let grant fh v =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino v

let must = function Ok _ -> () | Error e -> failwith e

let () =
  let d = Cluster.make ~seed:"revocation" () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin in
  let plans, _, _ = CC.create admin ~dir:root "plans.txt" () in
  CC.write_all admin plans "The five-year plan.\n";

  (* Contractor gets RW; contractor delegates R to a subcontractor. *)
  let contractor_key = Cluster.new_identity d in
  let contractor = CC.attach d ~identity:contractor_key ~uid:400 () in
  let c_cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal contractor))
      ~conditions:(grant plans "RW") ~comment:"contractor access" ()
  in
  must (CC.submit_credential contractor c_cred);
  let sub = CC.attach d ~identity:(Cluster.new_identity d) ~uid:401 () in
  let s_cred =
    Assertion.issue ~key:contractor_key ~drbg:(Cluster.drbg d)
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal sub))
      ~conditions:(grant plans "R") ~comment:"subcontractor read" ()
  in
  must (CC.submit_credential sub s_cred);
  ignore (CC.read contractor plans ~off:0 ~count:8);
  ignore (CC.read sub plans ~off:0 ~count:8);
  say "contractor (RW) and subcontractor (R via delegation) both have access";

  (* First, fine-grained revocation: pull one credential. The issuer
     (here the admin) asks the server to drop it by fingerprint. *)
  say "@.-- revoking just the subcontractor's chain is not possible from";
  say "   the admin (the contractor issued it), so the contractor does it:";
  (match CC.revoke_credential sub ~fingerprint:(Assertion.fingerprint s_cred) with
  | Error e -> say "   subcontractor tries to self-preserve: %S" e
  | Ok () -> failwith "non-authorizer revoked");
  must (CC.revoke_credential contractor ~fingerprint:(Assertion.fingerprint s_cred));
  (match CC.read sub plans ~off:0 ~count:8 with
  | exception Proto.Nfs_error s -> say "   subcontractor now: %s" (Proto.status_to_string s)
  | _ -> failwith "revoked credential still grants");

  (* Now the laptop with the contractor's key is stolen. The admin
     declares the KEY bad: the server refuses existing and future
     credentials authored by it and the key's own access dies with
     the credentials naming it as licensee only through re-query. *)
  say "@.-- contractor key reported stolen; administrator revokes the key:";
  (match CC.revoke_key contractor ~principal:(CC.principal contractor) with
  | Error e -> say "   thief tries to revoke first (denied): %S" e
  | Ok () -> failwith "non-admin revoked a key");
  must (CC.revoke_key admin ~principal:(CC.principal contractor));
  (* Re-submitting the old delegation no longer works... *)
  (match CC.submit_credential sub s_cred with
  | Error e -> say "   replaying old delegation: %S" e
  | Ok _ -> failwith "revoked authorizer accepted");
  (* ...and the contractor's own credential is gone from the session. *)
  (match CC.read contractor plans ~off:0 ~count:8 with
  | exception Proto.Nfs_error s -> say "   stolen key now: %s" (Proto.status_to_string s)
  | _ -> failwith "revoked key still has access");

  (* Short-lived credentials are the paper's other answer: "if the
     credentials are relatively short-lived, the server need only
     remember such information for a short period of time." Expiry is
     just another condition. *)
  say "@.-- alternative: short-lived credentials via an expiry condition";
  let hour = ref 10 in
  let d2 = Cluster.make ~seed:"expiry" ~hour:(fun () -> !hour) () in
  let admin2 = CC.attach d2 ~identity:(Cluster.admin_identity d2) ~uid:0 () in
  let f, _, _ = CC.create admin2 ~dir:(CC.root admin2) "temp.txt" () in
  CC.write_all admin2 f "temporary";
  let visitor = CC.attach d2 ~identity:(Cluster.new_identity d2) ~uid:500 () in
  let day_pass =
    Cluster.admin_issue d2
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal visitor))
      ~conditions:
        (Printf.sprintf
           "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") && (hour < 17) -> \"R\";"
           f.Proto.ino)
      ~comment:"day pass, expires 17:00" ()
  in
  must (CC.submit_credential visitor day_pass);
  ignore (CC.read visitor f ~off:0 ~count:4);
  say "   10:00 visitor reads fine";
  hour := 18;
  Discfs.Policy_cache.flush (Discfs.Server.cache (Cluster.node_server d2 0));
  (match CC.read visitor f ~off:0 ~count:4 with
  | exception Proto.Nfs_error s -> say "   18:00 day pass expired: %s" (Proto.status_to_string s)
  | _ -> failwith "expired pass still grants");
  say "@.revocation: OK"
