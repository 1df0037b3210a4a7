(* Model-based testing of DisCFS access control.

   We drive random sequences of operations (issue credential, create,
   read, write, remove) through the full stack and check every
   outcome against a simple oracle: an access matrix
   (user, inode) -> permission bits derived from exactly the
   credentials we issued. KeyNote's job is to agree with that matrix.

   The oracle deliberately models the paper-faithful handle
   semantics: credentials outlive the files they name, so rights
   persist across inode reuse (see the inode-reuse tests).

   The second property runs the same oracle over a 4-frontend
   cluster: users are homed on different frontends, reads and writes
   route to each file's owner (so connections open lazily), the
   administrator revokes what it issued, and frontends that are no
   one's home crash and restart. Every frontend must agree with the
   matrix. *)

module Proto = Nfs.Proto
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client

type op =
  | Issue of int * int * int (* user, file slot, bits 1..7 *)
  | Create of int (* user *)
  | Read of int * int (* user, file slot *)
  | Write of int * int
  | Remove of int (* file slot *)
  | Revoke of int * int (* user, file slot: the admin revokes what it issued there *)
  | Crash of int (* frontend *)

let n_users = 3

(* [crashable] lists the frontends a Crash may hit; with none, the
   generator is the one-node one, without Revoke or Crash. *)
let gen_ops ~crashable =
  let base =
    QCheck.Gen.
      [
        map3 (fun u f b -> Issue (u, f, 1 + (b mod 7))) (int_bound (n_users - 1)) (int_bound 9) (int_bound 6);
        map (fun u -> Create u) (int_bound (n_users - 1));
        map2 (fun u f -> Read (u, f)) (int_bound (n_users - 1)) (int_bound 9);
        map2 (fun u f -> Write (u, f)) (int_bound (n_users - 1)) (int_bound 9);
        map (fun f -> Remove f) (int_bound 9);
      ]
  in
  let cluster =
    match crashable with
    | [] -> []
    | l ->
      QCheck.Gen.
        [
          map2 (fun u f -> Revoke (u, f)) (int_bound (n_users - 1)) (int_bound 9);
          map (fun i -> Crash (List.nth l i)) (int_bound (List.length l - 1));
        ]
  in
  QCheck.Gen.(list_size (int_range 5 40) (oneof (base @ cluster)))

(* The oracle's state. *)
type model = {
  mutable rights : ((string * int) * int * string option) list;
      (* (peer, ino) -> bits, max-merged; the fingerprint of an admin-issued credential *)
  mutable files : (int * string) array; (* slot -> (ino, name); ino = 0 means empty slot *)
}

let model_bits m ~peer ~ino =
  List.fold_left
    (fun acc ((p, i), b, _) -> if p = peer && i = ino then max acc b else acc)
    0 m.rights

let grant m ~peer ~ino ?fp bits =
  (* KeyNote takes the maximum over matching assertions, and our
     values lattice is totally ordered, so max-merge models it. *)
  m.rights <- ((peer, ino), bits, fp) :: m.rights

(* [homes] gives the admin's home frontend, then each user's. *)
let run_scenario ~servers ~homes ~seed ops =
  let d = Cluster.make ~servers ~seed () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 ~home:homes.(0) () in
  let root = CC.root admin in
  let users =
    Array.init n_users (fun i ->
        CC.attach d ~identity:(Cluster.new_identity d) ~uid:(100 + i) ~home:homes.(i + 1) ())
  in
  let m = { rights = []; files = Array.make 10 (0, "") } in
  let counter = ref 0 in
  let peer u = CC.principal users.(u) in
  let check_access expected_bits required f =
    let expected = expected_bits land required = required in
    match f () with
    | _ -> if not expected then failwith "operation succeeded but the model denies it"
    | exception Proto.Nfs_error s when s = Proto.nfserr_acces ->
      if expected then failwith "operation denied but the model grants it"
    | exception Proto.Nfs_error _ -> () (* stale/noent etc: not an access decision *)
  in
  List.iter
    (fun op ->
      match op with
      | Issue (u, slot, bits) ->
        let ino, _ = m.files.(slot) in
        if ino <> 0 then begin
          let value = List.nth Discfs.Server.values bits in
          let cred =
            Cluster.admin_issue d
              ~licensees:(Printf.sprintf "\"%s\"" (peer u))
              ~conditions:
                (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";"
                   ino value)
              ()
          in
          match CC.submit_credential users.(u) cred with
          | Ok fp -> grant m ~peer:(peer u) ~ino ~fp bits
          | Error e -> failwith e
        end
      | Create u ->
        (* Slots full? overwrite the first empty one, or skip. *)
        let slot = ref (-1) in
        Array.iteri (fun i (ino, _) -> if !slot < 0 && ino = 0 then slot := i) m.files;
        if !slot >= 0 then begin
          incr counter;
          let name = Printf.sprintf "f%04d" !counter in
          (* The admin creates on behalf of users lacking W on root;
             users with W create through the DisCFS procedure. *)
          let root_bits = model_bits m ~peer:(peer u) ~ino:root.Proto.ino in
          if root_bits land 2 = 2 then begin
            let fh, _, _ = CC.create users.(u) ~dir:root name in
            m.files.(!slot) <- (fh.Proto.ino, name);
            grant m ~peer:(peer u) ~ino:fh.Proto.ino 7
          end
          else begin
            let fh, _, _ = CC.create admin ~dir:root name in
            m.files.(!slot) <- (fh.Proto.ino, name)
          end
        end
      | Read (u, slot) ->
        let ino, _ = m.files.(slot) in
        if ino <> 0 then begin
          let fh = { Proto.ino; gen = Ffs.Fs.generation (Cluster.fs d) ino } in
          check_access (model_bits m ~peer:(peer u) ~ino) 4 (fun () ->
              CC.read users.(u) fh ~off:0 ~count:8)
        end
      | Write (u, slot) ->
        let ino, _ = m.files.(slot) in
        if ino <> 0 then begin
          let fh = { Proto.ino; gen = Ffs.Fs.generation (Cluster.fs d) ino } in
          check_access (model_bits m ~peer:(peer u) ~ino) 2 (fun () ->
              CC.write users.(u) fh ~off:0 "data")
        end
      | Remove slot ->
        let ino, name = m.files.(slot) in
        if ino <> 0 then begin
          CC.remove admin root name;
          m.files.(slot) <- (0, "")
          (* rights deliberately NOT dropped: credentials persist *)
        end
      | Revoke (u, slot) ->
        let ino, _ = m.files.(slot) in
        if ino <> 0 then begin
          let mine ((p, i), _, fp) = p = peer u && i = ino && fp <> None in
          List.iter
            (fun ((_, _, fp) as r) ->
              match fp with
              | Some fingerprint when mine r -> (
                match CC.revoke_credential admin ~fingerprint with
                | Ok () -> ()
                | Error e -> failwith ("revoke: " ^ e))
              | _ -> ())
            m.rights;
          m.rights <- List.filter (fun r -> not (mine r)) m.rights
        end
      | Crash i -> Cluster.crash_and_restart d i)
    ops;
  (* Final sweep: the model and every frontend agree on every live
     cell. *)
  Array.iter
    (fun (ino, _) ->
      if ino <> 0 then
        for s = 0 to servers - 1 do
          for u = 0 to n_users - 1 do
            let server_level =
              Discfs.Server.query_level (Cluster.node_server d s) ~peer:(peer u) ~ino
            in
            let model_level = model_bits m ~peer:(peer u) ~ino in
            if server_level <> model_level then
              failwith
                (Printf.sprintf "divergence: frontend %d user %d ino %d server=%d model=%d" s u
                   ino server_level model_level)
          done
        done)
    m.files;
  true

let prop_model_agreement =
  QCheck.Test.make ~name:"random op sequences match the access-matrix oracle" ~count:25
    (QCheck.make (gen_ops ~crashable:[]))
    (run_scenario ~servers:1 ~homes:[| 0; 0; 0; 0 |] ~seed:"model-test")

(* Admin on frontend 1, users on 0, 1 and 0: frontends 2 and 3 are no
   one's home, so every connection to them opens lazily, and they are
   the ones that crash. *)
let prop_cluster_model_agreement =
  QCheck.Test.make ~name:"4 frontends: revocations, crashes and lazy attaches match the oracle"
    ~count:40
    (QCheck.make (gen_ops ~crashable:[ 2; 3 ]))
    (run_scenario ~servers:4 ~homes:[| 1; 0; 1; 0 |] ~seed:"model-test-4")

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:false prop_model_agreement;
    QCheck_alcotest.to_alcotest ~long:false prop_cluster_model_agreement;
  ]
