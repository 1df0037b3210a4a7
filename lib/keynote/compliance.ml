type query = {
  requesters : Ast.principal list;
  attributes : (string * string) list;
  values : string list;
}

type result = { level : int; value : string; trace : string list }

module Index = struct
  (* One node per normalized principal. The [*_stamp], [reached] and
     [busy] fields are per-query marks: a mark is set when it equals
     the index's current query number, so starting a query clears
     every mark at once. *)
  type node = {
    name : Ast.principal;
    mutable unguarded : entry list; (* entries licensing it with no handle guard, newest first *)
    guarded : (string, entry list) Hashtbl.t; (* the guarded ones, by handle key, newest first *)
    mutable refs : int; (* entries naming it, as issuer or licensee *)
    mutable reached : int; (* it can reach a requester *)
    mutable group_stamp : int;
    mutable group : entry list; (* the query's relevant entries it issued *)
    mutable value_stamp : int;
    mutable value : int;
    mutable busy : int; (* its value is being computed *)
  }

  and entry = {
    assertion : Assertion.t;
    seq : int; (* insertion order; the walk visits an issuer's entries newest first *)
    issuer : node; (* "POLICY" for local policy *)
    licensees : licensees option; (* the Licensees field over nodes *)
    principals : node list; (* distinct licensee nodes *)
    mutable taken : int; (* already grouped under its issuer this query *)
  }

  and licensees =
    | Principal of node
    | And of licensees * licensees
    | Or of licensees * licensees
    | Threshold of int * licensees list

  type t = {
    nodes : (Ast.principal, node) Hashtbl.t;
    mutable next_seq : int;
    mutable query : int; (* the current query's mark; 0 marks nothing *)
  }

  let create () = { nodes = Hashtbl.create 64; next_seq = 0; query = 0 }

  let node t name =
    match Hashtbl.find_opt t.nodes name with
    | Some n ->
      n.refs <- n.refs + 1;
      n
    | None ->
      let n =
        { name; unguarded = []; guarded = Hashtbl.create 1; refs = 1; reached = 0;
          group_stamp = 0; group = []; value_stamp = 0; value = 0; busy = 0 }
      in
      Hashtbl.replace t.nodes name n;
      n

  let release t n =
    n.refs <- n.refs - 1;
    if n.refs = 0 then Hashtbl.remove t.nodes n.name

  let rec compile t = function
    | Ast.Principal p -> Principal (node t (Ast.normalize_principal p))
    | Ast.And (a, b) ->
      let a = compile t a in
      And (a, compile t b)
    | Ast.Or (a, b) ->
      let a = compile t a in
      Or (a, compile t b)
    | Ast.Threshold (k, members) -> Threshold (k, List.map (compile t) members)

  let rec nodes_of acc = function
    | Principal n -> if List.memq n acc then acc else n :: acc
    | And (a, b) | Or (a, b) -> nodes_of (nodes_of acc a) b
    | Threshold (_, members) -> List.fold_left nodes_of acc members

  let rec release_all t = function
    | Principal n -> release t n
    | And (a, b) | Or (a, b) ->
      release_all t a;
      release_all t b
    | Threshold (_, members) -> List.iter (release_all t) members

  let guarded_bucket n key = Option.value (Hashtbl.find_opt n.guarded key) ~default:[]

  let add t ?(policy = false) (a : Assertion.t) =
    let a = if policy then { a with Assertion.authorizer = "POLICY" } else a in
    let issuer = node t (Ast.normalize_principal a.Assertion.authorizer) in
    let licensees = Option.map (compile t) a.Assertion.licensees in
    let principals = match licensees with None -> [] | Some l -> nodes_of [] l in
    let e = { assertion = a; seq = t.next_seq; issuer; licensees; principals; taken = 0 } in
    t.next_seq <- t.next_seq + 1;
    List.iter
      (fun n ->
        match a.Assertion.handles with
        | None -> n.unguarded <- e :: n.unguarded
        | Some keys ->
          List.iter (fun k -> Hashtbl.replace n.guarded k (e :: guarded_bucket n k)) keys)
      principals;
    e

  let remove t e =
    let others = List.filter (fun x -> x != e) in
    List.iter
      (fun n ->
        match e.assertion.Assertion.handles with
        | None -> n.unguarded <- others n.unguarded
        | Some keys ->
          List.iter
            (fun k ->
              match others (guarded_bucket n k) with
              | [] -> Hashtbl.remove n.guarded k
              | rest -> Hashtbl.replace n.guarded k rest)
            keys)
      e.principals;
    release t e.issuer;
    Option.iter (release_all t) e.licensees

  let assertion e = e.assertion
  let issuer e = e.issuer.name
  let seq e = e.seq

  (* The entries that can contribute to a query: walking backwards
     from the requesters, every entry licensing a reached node that
     the query's handle does not guard out, grouped under its issuer,
     which is reached in turn. Any other entry either names no
     principal that can reach a requester, so its licensees evaluate
     to _MIN_TRUST, or is guarded out, so its conditions do, before
     its licensees are looked at. *)
  let rec reach stamp handle n =
    if n.reached <> stamp then begin
      n.reached <- stamp;
      take stamp handle n.unguarded;
      take stamp handle (guarded_bucket n handle)
    end

  and take stamp handle = function
    | [] -> ()
    | e :: rest ->
      if e.taken <> stamp then begin
        e.taken <- stamp;
        let g = e.issuer in
        if g.group_stamp <> stamp then begin
          g.group_stamp <- stamp;
          g.group <- [ e ]
        end
        else g.group <- e :: g.group;
        reach stamp handle g
      end;
      take stamp handle rest
end

open Index

(* The attributes every query defines (RFC 2704 §5.1), consulted after
   the assertion's Local-Constants and the action attributes. *)
let special q = function
  | "_MIN_TRUST" -> Some (List.nth q.values 0)
  | "_MAX_TRUST" -> Some (List.nth q.values (List.length q.values - 1))
  | "_VALUES" -> Some (String.concat "," q.values)
  | "_ACTION_AUTHORIZERS" -> Some (String.concat "," q.requesters)
  | _ -> None

let short_principal p = if String.length p > 24 then String.sub p 0 21 ^ "..." else p
let newest_first (a : entry) (b : entry) = Int.compare b.seq a.seq
let is_policy p = String.equal p "POLICY"

(* One query in flight: everything the evaluator's functions share, in
   one record rather than in closures. *)
type ctx = {
  q : query;
  stamp : int;
  max_index : int;
  value_index : string -> int option;
  requesters : node list; (* the requesters the index knows *)
  note : (string -> unit) option;
      (* receives a line for every assertion that contributes a
         non-minimal value *)
}

let rec known nodes = function
  | [] -> []
  | p :: rest ->
    (match Hashtbl.find_opt nodes p with
    | Some n -> n :: known nodes rest
    | None -> known nodes rest)

let rec reach_all stamp handle = function
  | [] -> ()
  | n :: rest ->
    reach stamp handle n;
    reach_all stamp handle rest

(* Per node, the value is memoised and an in-progress mark cuts
   delegation cycles, exactly as the list reference does: the same
   visiting order (an issuer's relevant entries newest first), so the
   same cut. *)
let rec principal_value c n =
  if List.memq n c.requesters then c.max_index
  else if n.value_stamp = c.stamp then n.value
  else if n.busy = c.stamp then 0 (* delegation cycle: no additional authority *)
  else begin
    n.busy <- c.stamp;
    let entries = if n.group_stamp = c.stamp then List.sort newest_first n.group else [] in
    let v = group_value c 0 entries in
    n.value_stamp <- c.stamp;
    n.value <- v;
    v
  end

and group_value c acc = function
  | [] -> acc
  | e :: rest -> group_value c (max acc (assertion_value c e)) rest

and assertion_value c (e : entry) =
  let a = e.assertion in
  let env name =
    match List.assoc_opt name a.Assertion.local_constants with
    | Some v -> Some v
    | None ->
      (match List.assoc_opt name c.q.attributes with
      | Some v -> Some v
      | None -> special c.q name)
  in
  let conditions_value =
    match a.Assertion.conditions with
    | None -> c.max_index
    | Some prog -> Expr.eval_program env ~value_index:c.value_index ~max_index:c.max_index prog
  in
  if conditions_value = 0 then 0
  else begin
    let licensees_value =
      match e.licensees with
      | None -> 0
      | Some l -> licensees_value c l
    in
    let v = min conditions_value licensees_value in
    (match c.note with
    | Some note when v > 0 ->
      note
        (Printf.sprintf "assertion %s (authorizer %s) contributes %S"
           (Assertion.fingerprint a)
           (short_principal a.Assertion.authorizer)
           (List.nth c.q.values v))
    | _ -> ());
    v
  end

and licensees_value c = function
  | Principal n -> principal_value c n
  | And (a, b) -> min (licensees_value c a) (licensees_value c b)
  | Or (a, b) -> max (licensees_value c a) (licensees_value c b)
  | Threshold (k, members) ->
    let vs = List.map (licensees_value c) members in
    if List.length vs < k then 0
    else begin
      let sorted = List.sort (fun a b -> compare b a) vs in
      List.nth sorted (k - 1)
    end

(* The one evaluator. *)
let eval ?note (idx : Index.t) q =
  if q.values = [] then invalid_arg "Compliance.check: empty value set";
  idx.query <- idx.query + 1;
  let stamp = idx.query in
  let value_index v =
    let rec go i = function
      | [] -> None
      | x :: rest -> if String.equal x v then Some i else go (i + 1) rest
    in
    go 0 q.values
  in
  let requesters = List.map Ast.normalize_principal q.requesters in
  let c =
    { q; stamp; max_index = List.length q.values - 1; value_index;
      requesters = known idx.nodes requesters; note }
  in
  (* An absent HANDLE reads as the empty string. *)
  let handle =
    Expr.equality_key
      (Expr.V_str (Option.value (List.assoc_opt "HANDLE" q.attributes) ~default:""))
  in
  reach_all stamp handle c.requesters;
  let level =
    if List.exists is_policy requesters then c.max_index
    else match Hashtbl.find_opt idx.nodes "POLICY" with Some n -> principal_value c n | None -> 0
  in
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
