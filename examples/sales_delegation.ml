(* The paper's motivating scenario (§2): Bob, a salesman, wants
   designated clients to see advance product literature on the
   corporate server — without creating accounts, passwords, group
   entries or any administrator involvement beyond the initial
   delegation to Bob.

   Run with: dune exec examples/sales_delegation.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Assertion = Keynote.Assertion
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let handle_grant fh v =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino v

let () =
  let d = Cluster.make ~seed:"sales" () in

  (* One-time administrator action: delegate the corporate tree root
     to Bob. After this the administrators are out of the loop. *)
  let bob_key = Cluster.new_identity d in
  let bob = CC.attach d ~identity:bob_key ~uid:100 () in
  let root = CC.root bob in
  let to_bob = Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal bob))
      ~conditions:(handle_grant root "RWX") ~comment:"corporate tree -> Bob (sales)" ()
  in
  (match CC.submit_credential bob to_bob with Ok _ -> () | Error e -> failwith e);
  say "Administrator delegated the tree to Bob once; no further admin actions below.";

  (* Bob sets up the restricted product directory. *)
  let dir_fh, _, _dir_cred = CC.mkdir bob ~dir:root "product-x" () in
  let brochure, _, _ = CC.create bob ~dir:dir_fh "brochure.txt" () in
  CC.write_all bob brochure
    "PRODUCT X - CONFIDENTIAL ADVANCE INFORMATION\nShips Q3. Pricing...\n";
  let specs, _, _ = CC.create bob ~dir:dir_fh "specs.txt" () in
  CC.write_all bob specs "Technical specifications...\n";
  say "Bob created product-x/{brochure.txt,specs.txt}";

  (* Ten client companies; each sends Bob a public key, Bob answers
     with a credential. Nothing is configured on the server. *)
  let clients =
    List.init 10 (fun i ->
        let key = Cluster.new_identity d in
        let c = CC.attach d ~identity:key ~uid:(5000 + i) () in
        (Printf.sprintf "client-%02d" i, key, c))
  in
  List.iter
    (fun (name, _key, c) ->
      (* Read the directory and both files: RX on the dir to list and
         look up, R on each file. One multi-clause credential. *)
      let conditions =
        Printf.sprintf
          "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RX\";\n\
           \t(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";\n\
           \t(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";"
          dir_fh.Proto.ino brochure.Proto.ino specs.Proto.ino
      in
      let cred =
        Assertion.issue ~key:bob_key ~drbg:(Cluster.drbg d)
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal c))
          ~conditions ~comment:("product-x access for " ^ name) ()
      in
      match CC.submit_credential c cred with
      | Ok _ -> ()
      | Error e -> failwith e)
    clients;
  say "Bob issued 10 credentials (one email each); server learned nothing in advance.";

  (* Every client can browse and read... *)
  let _, _, first_client = List.hd clients in
  let listing = CC.readdir first_client dir_fh in
  say "client-00 lists product-x: %s"
    (String.concat ", " (List.filter (fun n -> n <> "." && n <> "..") (List.map fst listing)));
  List.iter
    (fun (name, _, c) ->
      let _, data = CC.read c brochure ~off:0 ~count:9 in
      assert (data = "PRODUCT X");
      ignore name)
    clients;
  say "All 10 clients read the brochure.";

  (* ...but none can modify, and outsiders see nothing. *)
  (match CC.write first_client brochure ~off:0 "defaced" with
  | exception Proto.Nfs_error s -> say "client write refused: %s" (Proto.status_to_string s)
  | _ -> failwith "client write should fail");
  let outsider = CC.attach d ~identity:(Cluster.new_identity d) ~uid:9999 () in
  (match CC.read outsider brochure ~off:0 ~count:4 with
  | exception Proto.Nfs_error s -> say "outsider read refused: %s" (Proto.status_to_string s)
  | _ -> failwith "outsider read should fail");

  (* A client delegates to a colleague — capability-style sharing,
     still with no server configuration. *)
  let _, c0_key, _ = List.hd clients in
  let colleague = CC.attach d ~identity:(Cluster.new_identity d) ~uid:5100 () in
  let sub_delegation =
    Assertion.issue ~key:c0_key ~drbg:(Cluster.drbg d)
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal colleague))
      ~conditions:(handle_grant brochure "R") ~comment:"fwd: brochure" ()
  in
  (match CC.submit_credential colleague sub_delegation with
  | Ok _ -> ()
  | Error e -> failwith e);
  let _, data = CC.read colleague brochure ~off:0 ~count:9 in
  say "client-00's colleague reads via a 3-link chain: %S" data;
  say "@.sales_delegation: OK"
