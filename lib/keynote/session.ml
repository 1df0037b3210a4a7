module Index = Compliance.Index

type t = {
  values : string list;
  index : Index.t; (* policy and credentials, by licensee *)
  by_fingerprint : (string, Index.entry) Hashtbl.t;
  by_authorizer : (Ast.principal, (string, Index.entry) Hashtbl.t) Hashtbl.t;
  trace : Trace.t;
}

let create ~values ?(policy = []) ?(trace = Trace.null) () =
  if values = [] then invalid_arg "Session.create: empty value set";
  let index = Index.create () in
  List.iter (fun a -> ignore (Index.add index ~policy:true a)) policy;
  { values; index; by_fingerprint = Hashtbl.create 64; by_authorizer = Hashtbl.create 8;
    trace }

let add_credential t a =
  if not (Assertion.verify a) then Error "credential signature verification failed"
  else begin
    let fp = Assertion.fingerprint a in
    if not (Hashtbl.mem t.by_fingerprint fp) then begin
      let e = Index.add t.index a in
      Hashtbl.replace t.by_fingerprint fp e;
      let issuer = Index.issuer e in
      let mine =
        match Hashtbl.find_opt t.by_authorizer issuer with
        | Some m -> m
        | None ->
          let m = Hashtbl.create 16 in
          Hashtbl.replace t.by_authorizer issuer m;
          m
      in
      Hashtbl.replace mine fp e
    end;
    Ok ()
  end

let remove_credential t ~fingerprint =
  match Hashtbl.find_opt t.by_fingerprint fingerprint with
  | None -> false
  | Some e ->
    Index.remove t.index e;
    Hashtbl.remove t.by_fingerprint fingerprint;
    let issuer = Index.issuer e in
    (match Hashtbl.find_opt t.by_authorizer issuer with
    | Some mine ->
      Hashtbl.remove mine fingerprint;
      if Hashtbl.length mine = 0 then Hashtbl.remove t.by_authorizer issuer
    | None -> ());
    true

let remove_authored t ~authorizer =
  match Hashtbl.find_opt t.by_authorizer (Ast.normalize_principal authorizer) with
  | None -> 0
  | Some mine ->
    let fps = Hashtbl.fold (fun fp _ acc -> fp :: acc) mine [] in
    List.iter (fun fingerprint -> ignore (remove_credential t ~fingerprint)) fps;
    List.length fps

let find_credential t ~fingerprint =
  Option.map Index.assertion (Hashtbl.find_opt t.by_fingerprint fingerprint)

(* Insertion order, which [Server.save_state] persists byte for byte. *)
let credentials t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.by_fingerprint []
  |> List.sort (fun a b -> Int.compare (Index.seq a) (Index.seq b))
  |> List.map Index.assertion

let size t = Hashtbl.length t.by_fingerprint

(* Credentials were signature-checked when admitted. Untraced, no
   span closure is built. *)
let query t ~requesters ~attributes =
  let q = { Compliance.requesters; attributes; values = t.values } in
  if Trace.enabled t.trace then
    Trace.span t.trace "keynote.compliance"
      ~attrs:[ ("credentials", string_of_int (size t)) ]
      (fun () -> Compliance.evaluate t.index q)
  else Compliance.evaluate t.index q
