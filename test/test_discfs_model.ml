(* Model-based testing of DisCFS access control.

   We drive random sequences of operations (issue credential, create,
   read, write, remove) through the full stack and check every
   outcome against a simple oracle: an access matrix
   (user, inode) -> permission bits derived from exactly the
   credentials we issued. KeyNote's job is to agree with that matrix.

   The oracle deliberately models the paper-faithful handle
   semantics: credentials outlive the files they name, so rights
   persist across inode reuse (see the inode-reuse tests). *)

module Proto = Nfs.Proto
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client

type op =
  | Issue of int * int * int (* user, file slot, bits 1..7 *)
  | Create of int (* user *)
  | Read of int * int (* user, file slot *)
  | Write of int * int
  | Remove of int (* file slot *)

let n_users = 3

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map3 (fun u f b -> Issue (u, f, 1 + (b mod 7))) (int_bound (n_users - 1)) (int_bound 9) (int_bound 6);
        map (fun u -> Create u) (int_bound (n_users - 1));
        map2 (fun u f -> Read (u, f)) (int_bound (n_users - 1)) (int_bound 9);
        map2 (fun u f -> Write (u, f)) (int_bound (n_users - 1)) (int_bound 9);
        map (fun f -> Remove f) (int_bound 9);
      ])

let gen_ops = QCheck.Gen.list_size (QCheck.Gen.int_range 5 40) gen_op

(* The oracle's state. *)
type model = {
  mutable rights : ((string * int) * int) list; (* (peer, ino) -> bits, max-merged *)
  mutable files : (int * string) array; (* slot -> (ino, name); ino = 0 means empty slot *)
}

let model_bits m ~peer ~ino =
  List.fold_left (fun acc ((p, i), b) -> if p = peer && i = ino then max acc b else acc) 0 m.rights

let grant m ~peer ~ino bits =
  (* KeyNote takes the maximum over matching assertions, and our
     values lattice is totally ordered, so max-merge models it. *)
  m.rights <- ((peer, ino), bits) :: m.rights

let run_scenario ops =
  let d = Cluster.make ~seed:"model-test" () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin in
  let users =
    Array.init n_users (fun i ->
        CC.attach d ~identity:(Cluster.new_identity d) ~uid:(100 + i) ())
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
          | Ok _ -> grant m ~peer:(peer u) ~ino bits
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
            let fh, _, _ = CC.create users.(u) ~dir:root name () in
            m.files.(!slot) <- (fh.Proto.ino, name);
            grant m ~peer:(peer u) ~ino:fh.Proto.ino 7
          end
          else begin
            let fh, _, _ = CC.create admin ~dir:root name () in
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
        end)
    ops;
  (* Final sweep: the model and the server agree on every live cell. *)
  Array.iter
    (fun (ino, _) ->
      if ino <> 0 then
        for u = 0 to n_users - 1 do
          let server_level =
            Discfs.Server.query_level (Cluster.node_server d 0) ~peer:(peer u) ~ino
          in
          let model_level = model_bits m ~peer:(peer u) ~ino in
          if server_level <> model_level then
            failwith
              (Printf.sprintf "divergence: user %d ino %d server=%d model=%d" u ino
                 server_level model_level)
        done)
    m.files;
  true

let prop_model_agreement =
  QCheck.Test.make ~name:"random op sequences match the access-matrix oracle" ~count:25
    (QCheck.make gen_ops) run_scenario

let suite = [ QCheck_alcotest.to_alcotest ~long:false prop_model_agreement ]
