(* The distributed claim (paper §4.3): "the entire scheme works with
   both monolithic and distributed servers. Since the servers do not
   need to share information about users, there is no synchronization
   overhead ... there is no need to distribute and synchronize
   authentication and access control databases (like NIS)."

   Two DisCFS servers in different administrative domains. One user,
   one key. Each domain's owner independently issues a credential for
   their own server; nothing is shared or synchronized between them.
   Run with: dune exec examples/two_servers.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let grant fh v =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino v

let must = function Ok _ -> () | Error e -> failwith e

let () =
  (* Two completely independent deployments: separate disks, clocks,
     administrators, policies. Only the *user's key* spans them. *)
  let penn = Cluster.make ~seed:"upenn.edu" () in
  let cam = Cluster.make ~seed:"cam.ac.uk" () in
  say "Two servers, two administrative domains:";
  say "  upenn.edu   admin %s..." (String.sub (Cluster.admin_principal penn) 0 26);
  say "  cam.ac.uk   admin %s..." (String.sub (Cluster.admin_principal cam) 0 26);

  (* The traveling researcher has ONE key pair. *)
  let researcher = Cluster.new_identity penn in
  say "Researcher generates one key pair; no account exists anywhere.";

  (* Each domain hosts a paper draft. *)
  let setup d name text =
    let admin = CC.attach d ~identity:(Discfs.Cluster.admin_identity d) ~uid:0 () in
    let fh, _, _ = CC.create admin ~dir:(CC.root admin) name () in
    CC.write_all admin fh text;
    fh
  in
  let penn_file = setup penn "draft-penn.tex" "The Philadelphia draft.\n" in
  let cam_file = setup cam "draft-cam.tex" "The Cambridge draft.\n" in

  (* The researcher attaches to both with the same identity. *)
  let at_penn = CC.attach penn ~identity:researcher ~uid:1000 () in
  let at_cam = CC.attach cam ~identity:researcher ~uid:2000 () in
  say "Researcher attaches to both servers with the same key.";

  (* Each admin issues a credential for their own server's file —
     independently, using only the researcher's public key. *)
  must
    (CC.submit_credential at_penn
       (Cluster.admin_issue penn
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal at_penn))
          ~conditions:(grant penn_file "RW") ~comment:"penn collaboration" ()));
  must
    (CC.submit_credential at_cam
       (Cluster.admin_issue cam
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal at_cam))
          ~conditions:(grant cam_file "R") ~comment:"cam visitor, read only" ()));
  say "Each domain issued its own credential; no NIS, no realm merging,";
  say "no cross-domain configuration of any kind.";

  (* Work proceeds on both, under each domain's own policy. *)
  let _, penn_text = CC.read at_penn penn_file ~off:0 ~count:64 in
  say "  at upenn.edu: reads %S" (String.trim penn_text);
  ignore (CC.write at_penn penn_file ~off:0 "Rev 2:");
  say "  at upenn.edu: write accepted (RW credential)";
  let _, cam_text = CC.read at_cam cam_file ~off:0 ~count:64 in
  say "  at cam.ac.uk: reads %S" (String.trim cam_text);
  (match CC.write at_cam cam_file ~off:0 "no" with
  | exception Proto.Nfs_error s ->
    say "  at cam.ac.uk: write refused (%s) - that domain granted R only"
      (Proto.status_to_string s)
  | _ -> failwith "cam write should fail");

  (* Credentials do not leak across domains: the Penn credential is
     useless at Cambridge (different policy roots, different handles). *)
  let penn_cred =
    Cluster.admin_issue penn
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal at_penn))
      ~conditions:(grant cam_file "RWX") ~comment:"confused deputy attempt" ()
  in
  must (CC.submit_credential at_cam penn_cred);
  (match CC.write at_cam cam_file ~off:0 "no" with
  | exception Proto.Nfs_error s ->
    say "  a upenn-signed credential submitted at cam.ac.uk grants nothing (%s):"
      (Proto.status_to_string s);
    say "  cam's policy does not trust the upenn administrator's key."
  | _ -> failwith "cross-domain credential should not grant");
  say "@.two_servers: OK"
