type query = {
  requesters : Ast.principal list;
  attributes : (string * string) list;
  values : string list;
}

type result = { level : int; value : string; trace : string list }

module Index = struct
  type entry = {
    assertion : Assertion.t;
    seq : int; (* insertion order; the walk visits an issuer's assertions newest first *)
    issuer : Ast.principal; (* normalized authorizer; "POLICY" for local policy *)
    principals : Ast.principal list; (* distinct normalized licensee principals *)
  }

  type t = {
    by_licensee : (Ast.principal, entry list) Hashtbl.t;
    mutable next_seq : int;
  }

  let create () = { by_licensee = Hashtbl.create 64; next_seq = 0 }

  let bucket t p = Option.value (Hashtbl.find_opt t.by_licensee p) ~default:[]

  let add t ?(policy = false) (a : Assertion.t) =
    let a = if policy then { a with Assertion.authorizer = "POLICY" } else a in
    let principals =
      match a.Assertion.licensees with
      | None -> []
      | Some l ->
        List.sort_uniq String.compare
          (List.map Ast.normalize_principal (Ast.licensees_principals l))
    in
    let e =
      { assertion = a; seq = t.next_seq; issuer = Ast.normalize_principal a.Assertion.authorizer;
        principals }
    in
    t.next_seq <- t.next_seq + 1;
    List.iter (fun p -> Hashtbl.replace t.by_licensee p (e :: bucket t p)) principals;
    e

  let remove t e =
    List.iter
      (fun p ->
        match List.filter (fun x -> x != e) (bucket t p) with
        | [] -> Hashtbl.remove t.by_licensee p
        | rest -> Hashtbl.replace t.by_licensee p rest)
      e.principals

  let assertion e = e.assertion
  let issuer e = e.issuer
  let seq e = e.seq

  (* The assertions that can contribute to a query: walking backwards
     from the requesters, every assertion licensing a reached principal,
     grouped by issuer, whose issuer is reached in turn. Any other
     assertion names no principal that can reach a requester, so its
     licensees — and hence its value — evaluate to _MIN_TRUST. *)
  let relevant t requesters =
    let groups : (Ast.principal, entry list) Hashtbl.t = Hashtbl.create 8 in
    let reached : (Ast.principal, unit) Hashtbl.t = Hashtbl.create 8 in
    let taken : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let rec reach p =
      if not (Hashtbl.mem reached p) then begin
        Hashtbl.replace reached p ();
        List.iter
          (fun e ->
            if not (Hashtbl.mem taken e.seq) then begin
              Hashtbl.replace taken e.seq ();
              Hashtbl.replace groups e.issuer
                (e :: Option.value (Hashtbl.find_opt groups e.issuer) ~default:[]);
              reach e.issuer
            end)
          (bucket t p)
      end
    in
    List.iter reach requesters;
    groups
end

let special_attributes q =
  let n = List.length q.values in
  [
    ("_MIN_TRUST", List.nth q.values 0);
    ("_MAX_TRUST", List.nth q.values (n - 1));
    ("_VALUES", String.concat "," q.values);
    ("_ACTION_AUTHORIZERS", String.concat "," q.requesters);
  ]

let short_principal p = if String.length p > 24 then String.sub p 0 21 ^ "..." else p

(* The one evaluator. [note], when given, receives a line for every
   assertion that contributes a non-minimal value. *)
let eval ?note idx q =
  if q.values = [] then invalid_arg "Compliance.check: empty value set";
  let max_index = List.length q.values - 1 in
  let value_index v =
    let rec go i = function
      | [] -> None
      | x :: rest -> if String.equal x v then Some i else go (i + 1) rest
    in
    go 0 q.values
  in
  let requesters = List.map Ast.normalize_principal q.requesters in
  let groups = Index.relevant idx requesters in
  let specials = lazy (special_attributes q) in
  let memo : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec principal_value p =
    let p = Ast.normalize_principal p in
    if List.mem p requesters then max_index
    else
      match Hashtbl.find_opt memo p with
      | Some v -> v
      | None ->
        if Hashtbl.mem in_progress p then 0 (* delegation cycle: no additional authority *)
        else begin
          Hashtbl.replace in_progress p ();
          let entries =
            List.sort
              (fun (a : Index.entry) (b : Index.entry) -> Int.compare b.seq a.seq)
              (Option.value (Hashtbl.find_opt groups p) ~default:[])
          in
          let v = List.fold_left (fun acc e -> max acc (assertion_value e)) 0 entries in
          Hashtbl.remove in_progress p;
          Hashtbl.replace memo p v;
          v
        end
  and assertion_value (e : Index.entry) =
    let a = e.assertion in
    let env name =
      match List.assoc_opt name a.Assertion.local_constants with
      | Some v -> Some v
      | None ->
        (match List.assoc_opt name q.attributes with
        | Some v -> Some v
        | None -> List.assoc_opt name (Lazy.force specials))
    in
    let conditions_value =
      match a.Assertion.conditions with
      | None -> max_index
      | Some prog -> Expr.eval_program env ~value_index ~max_index prog
    in
    if conditions_value = 0 then 0
    else begin
      let licensees_value =
        match a.Assertion.licensees with
        | None -> 0
        | Some l -> licensees_value l
      in
      let v = min conditions_value licensees_value in
      (match note with
      | Some note when v > 0 ->
        note
          (Printf.sprintf "assertion %s (authorizer %s) contributes %S"
             (Assertion.fingerprint a)
             (short_principal a.Assertion.authorizer)
             (List.nth q.values v))
      | _ -> ());
      v
    end
  and licensees_value = function
    | Ast.Principal p -> principal_value p
    | Ast.And (a, b) -> min (licensees_value a) (licensees_value b)
    | Ast.Or (a, b) -> max (licensees_value a) (licensees_value b)
    | Ast.Threshold (k, members) ->
      let vs = List.map licensees_value members in
      if List.length vs < k then 0
      else begin
        let sorted = List.sort (fun a b -> compare b a) vs in
        List.nth sorted (k - 1)
      end
  in
  let level = principal_value "POLICY" in
  { level; value = List.nth q.values level; trace = [] }

let evaluate idx q = eval idx q

let check ?(assume_verified = false) ~policy ~credentials q =
  let idx = Index.create () in
  let trace = ref [] in
  let note s = trace := s :: !trace in
  List.iter (fun a -> ignore (Index.add idx ~policy:true a)) policy;
  List.iter
    (fun a ->
      if assume_verified || Assertion.verify a then ignore (Index.add idx a)
      else
        note
          (Printf.sprintf "discarded credential %s: bad or missing signature"
             (Assertion.fingerprint a)))
    credentials;
  let r = eval ~note idx q in
  { r with trace = List.rev !trace }
