(* The paper's own anecdote (§4.2): while writing the paper, the
   authors had no common unix group, so the CVS repository had to be
   made world-writable. With DisCFS the repository owner just issues
   read-write certificates to the other authors.

   Five authors, one repository, zero administrator actions.
   Run with: dune exec examples/cvs_repository.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Assertion = Keynote.Assertion
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let grant fh v =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino v

let () =
  let d = Cluster.make ~seed:"cvs" () in

  (* Miltchev owns the repository. *)
  let owner_key = Cluster.new_identity d in
  let owner = CC.attach d ~identity:owner_key ~uid:100 () in
  let root = CC.root owner in
  (match
     CC.submit_credential owner
       (Cluster.admin_issue d
          ~licensees:(Printf.sprintf "\"%s\"" (CC.principal owner))
          ~conditions:(grant root "RWX") ())
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let repo, _, _repo_cred = CC.mkdir owner ~dir:root "cvsroot" in
  let paper, _, _ = CC.create owner ~dir:repo "discfs-paper.tex,v" in
  CC.write_all owner paper "head 1.1;\n1.1\nlog\n@initial@\ntext\n@...@\n";
  say "miltchev created cvsroot/ and checked in discfs-paper.tex,v";

  (* The co-authors, each with their own key, each getting a
     read-write certificate from the repository owner. *)
  let coauthors = [ "prevelakis"; "sotiris"; "angelos"; "jms" ] in
  let author_clients =
    List.mapi
      (fun i name ->
        let key = Cluster.new_identity d in
        let c = CC.attach d ~identity:key ~uid:(200 + i) () in
        let cred =
          Assertion.issue ~key:owner_key ~drbg:(Cluster.drbg d)
            ~licensees:(Printf.sprintf "\"%s\"" (CC.principal c))
            ~conditions:(grant repo "RWX" ^ "\n\t" ^ grant paper "RW")
            ~comment:(Printf.sprintf "cvs access for %s" name) ()
        in
        (match CC.submit_credential c cred with Ok _ -> () | Error e -> failwith e);
        (name, c))
      coauthors
  in
  say "owner issued read-write certificates to: %s" (String.concat ", " coauthors);

  (* Each author commits a revision — a read-modify-write cycle. *)
  List.iter
    (fun (name, c) ->
      let current = CC.read_all c paper in
      let revision = Printf.sprintf "%s%% revision by %s\n" current name in
      CC.write_all c paper revision;
      say "  %s committed (file now %d bytes)" name (String.length revision))
    author_clients;

  (* Everyone sees everyone's work. *)
  let final = CC.read_all owner paper in
  List.iter
    (fun (name, _) ->
      if not (Rex.matches ("revision by " ^ name) final) then
        failwith ("lost commit from " ^ name))
    author_clients;
  say "all %d commits present; repository never needed a unix group" (List.length coauthors);

  (* The failure the paper describes is gone: a stranger on the same
     server gets nothing, because nothing was made world-writable. *)
  let stranger = CC.attach d ~identity:(Cluster.new_identity d) ~uid:666 () in
  (match CC.read stranger paper ~off:0 ~count:4 with
  | exception Proto.Nfs_error s -> say "stranger refused: %s" (Proto.status_to_string s)
  | _ -> failwith "stranger should be refused");
  say "@.cvs_repository: OK"
