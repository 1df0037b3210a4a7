(* Pass B: static analysis over a KeyNote assertion set.

   The compliance checker's evaluation is a walk of the delegation
   graph rooted at POLICY (authorizer -> licensees, min along a
   chain, max across chains). This module runs the same walk
   statically — with conditions replaced by their best case (maximum
   grantable value, latest satisfiable deadline) — and reports the
   structural defects that per-request evaluation only ever shows as
   silent denials. *)

module Ast = Keynote.Ast
module Assertion = Keynote.Assertion

type config = {
  values : string list;
  now : float option;
  revoked_keys : Ast.principal list;
  revoked_fingerprints : string list;
  verify_signatures : bool;
}

let default_values = [ "false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX" ]

type kind =
  | Cycle
  | Unreachable
  | Escalation
  | Expired
  | Expiry_shadowed
  | Revoked
  | Revoked_chain
  | Bad_signature

let kind_name = function
  | Cycle -> "cycle"
  | Unreachable -> "unreachable"
  | Escalation -> "escalation"
  | Expired -> "expired"
  | Expiry_shadowed -> "expiry-shadowed"
  | Revoked -> "revoked"
  | Revoked_chain -> "revoked-chain"
  | Bad_signature -> "bad-signature"

type finding = {
  kind : kind;
  fingerprint : string option;
  subject : string;
  message : string;
}

type report = {
  findings : finding list;
  n_policy : int;
  n_credentials : int;
  n_principals : int;
  n_reachable : int;
}

let short p = if String.length p > 24 then String.sub p 0 21 ^ "..." else p

(* --- conditions analysis ----------------------------------------------- *)

let is_time_attr name =
  match String.lowercase_ascii name with
  | "time" | "now" | "_time" | "_now" | "date" -> true
  | _ -> false

(* Latest virtual time at which a guard can still hold, considering
   only upper bounds on a time attribute. Conjunction takes the
   earliest bound, disjunction the latest; anything else (negation,
   lower bounds, attribute arithmetic) is conservatively unbounded. *)
let rec guard_deadline (t : Ast.test) =
  match t with
  | Ast.AndT (a, b) -> Float.min (guard_deadline a) (guard_deadline b)
  | Ast.OrT (a, b) -> Float.max (guard_deadline a) (guard_deadline b)
  | Ast.Lt (Ast.Attr a, Ast.Num n) | Ast.Le (Ast.Attr a, Ast.Num n) when is_time_attr a -> n
  | Ast.Gt (Ast.Num n, Ast.Attr a) | Ast.Ge (Ast.Num n, Ast.Attr a) when is_time_attr a -> n
  | _ -> infinity

let rec prog_deadline (p : Ast.program) =
  List.fold_left
    (fun acc (c : Ast.clause) ->
      let d = guard_deadline c.Ast.guard in
      let d =
        match c.Ast.result with
        | Ast.Subprogram sub -> Float.min d (prog_deadline sub)
        | _ -> d
      in
      Float.max acc d)
    neg_infinity p

let value_index values v =
  let rec go i = function
    | [] -> None
    | x :: rest -> if String.equal x v then Some i else go (i + 1) rest
  in
  go 0 values

(* Highest compliance value any clause can yield, guards assumed
   satisfiable — the static upper bound on what the assertion
   grants. *)
let rec prog_grant values max_index (p : Ast.program) =
  List.fold_left
    (fun acc (c : Ast.clause) ->
      let g =
        match c.Ast.result with
        | Ast.Value s -> ( match value_index values s with Some i -> i | None -> 0)
        | Ast.Max_trust -> max_index
        | Ast.Subprogram sub -> prog_grant values max_index sub
      in
      max acc g)
    0 p

(* --- the analysis ------------------------------------------------------ *)

type info = {
  a : Assertion.t;
  fp : string;
  auth : string;
  lics : string list;
  grant : int;
  deadline : float;
  revoked_direct : bool;
  revoked_issuer : bool;
}

let analyze ~config ~policy ~credentials () =
  if config.values = [] then invalid_arg "Credgraph.analyze: empty value set";
  let values = config.values in
  let max_index = List.length values - 1 in
  let revoked_keys = List.map Ast.normalize_principal config.revoked_keys in
  let findings = ref [] in
  let add kind fingerprint subject message =
    findings := { kind; fingerprint; subject; message } :: !findings
  in
  let policy = List.map (fun a -> { a with Assertion.authorizer = "POLICY" }) policy in
  let credentials =
    List.filter
      (fun a ->
        let ok = (not config.verify_signatures) || Assertion.verify a in
        if not ok then begin
          let fp = Assertion.fingerprint a in
          add Bad_signature (Some fp)
            (short a.Assertion.authorizer)
            (Printf.sprintf
               "credential %s: bad or missing signature; the compliance checker ignores it" fp)
        end;
        ok)
      credentials
  in
  let info_of a =
    let fp = Assertion.fingerprint a in
    let auth = Ast.normalize_principal a.Assertion.authorizer in
    let lics =
      match a.Assertion.licensees with
      | None -> []
      | Some l ->
        Ast.licensees_principals l
        |> List.map Ast.normalize_principal
        |> List.sort_uniq String.compare
    in
    let grant =
      match a.Assertion.conditions with
      | None -> max_index
      | Some p -> prog_grant values max_index p
    in
    let deadline =
      match a.Assertion.conditions with None -> infinity | Some p -> prog_deadline p
    in
    {
      a;
      fp;
      auth;
      lics;
      grant;
      deadline;
      revoked_direct = List.mem fp config.revoked_fingerprints;
      revoked_issuer = List.mem auth revoked_keys;
    }
  in
  let pol_infos = List.map info_of policy in
  let cred_infos =
    List.map info_of credentials |> List.sort (fun x y -> String.compare x.fp y.fp)
  in
  let all = pol_infos @ cred_infos in
  let principals =
    "POLICY" :: List.concat_map (fun i -> i.auth :: i.lics) all
    |> List.sort_uniq String.compare
  in
  (* Bottleneck fixpoint from POLICY: for each principal, the highest
     value (and latest chain deadline) achievable along any chain —
     min along a chain, max across chains. Values only ever increase,
     so iteration terminates. With [prune], revoked credentials and
     revoked key nodes are removed from the graph. *)
  let fix ~prune =
    let ceil = Hashtbl.create 16 and dl = Hashtbl.create 16 in
    Hashtbl.replace ceil "POLICY" max_index;
    Hashtbl.replace dl "POLICY" infinity;
    let get_ceil p = Option.value (Hashtbl.find_opt ceil p) ~default:(-1) in
    let get_dl p = Option.value (Hashtbl.find_opt dl p) ~default:neg_infinity in
    let usable i = not (prune && (i.revoked_direct || i.revoked_issuer)) in
    let node_ok p = not (prune && List.mem p revoked_keys) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun i ->
          if usable i && node_ok i.auth then begin
            let cp = get_ceil i.auth in
            if cp >= 0 then
              List.iter
                (fun l ->
                  if node_ok l then begin
                    let c' = min cp i.grant in
                    let d' = Float.min (get_dl i.auth) i.deadline in
                    if c' > get_ceil l then begin
                      Hashtbl.replace ceil l c';
                      changed := true
                    end;
                    if d' > get_dl l then begin
                      Hashtbl.replace dl l d';
                      changed := true
                    end
                  end)
                i.lics
          end)
        all
    done;
    (get_ceil, get_dl)
  in
  let ceil_full, dl_full = fix ~prune:false in
  let ceil_live, _ = fix ~prune:true in
  (* Cycle detection: strongly connected components of the
     authorizer -> licensee edge set (Tarjan). *)
  let adj = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let cur = try Hashtbl.find adj i.auth with Not_found -> [] in
      Hashtbl.replace adj i.auth (List.sort_uniq String.compare (i.lics @ cur)))
    all;
  let index = Hashtbl.create 16 and lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (try Hashtbl.find adj v with Not_found -> []);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let self_loop p = List.mem p (try Hashtbl.find adj p with Not_found -> []) in
      match comp with
      | [ p ] when not (self_loop p) -> ()
      | comp -> sccs := List.sort String.compare comp :: !sccs
    end
  in
  List.iter (fun p -> if not (Hashtbl.mem index p) then strongconnect p) principals;
  List.iter
    (fun comp ->
      let ring = String.concat " -> " (List.map short comp) in
      add Cycle None (String.concat "," (List.map short comp))
        (Printf.sprintf
           "delegation cycle (%s): the loop contributes no authority at evaluation time" ring))
    (List.sort (fun (a : string list) b -> Stdlib.compare a b) !sccs);
  (* Per-credential findings. *)
  List.iter
    (fun i ->
      let fp = Some i.fp in
      let subj = short i.a.Assertion.authorizer in
      if i.revoked_direct then
        add Revoked fp subj (Printf.sprintf "credential %s is revoked" i.fp)
      else if i.revoked_issuer then
        add Revoked fp subj
          (Printf.sprintf "credential %s: issuer key %s is revoked" i.fp subj)
      else begin
        let cp = ceil_full i.auth in
        if cp < 0 then
          add Unreachable fp subj
            (Printf.sprintf "credential %s: no delegation path from POLICY reaches issuer %s"
               i.fp subj)
        else begin
          if ceil_live i.auth < 0 then
            add Revoked_chain fp subj
              (Printf.sprintf
                 "credential %s: every delegation path to issuer %s traverses revoked material"
                 i.fp subj);
          if i.grant > cp then
            add Escalation fp subj
              (Printf.sprintf
                 "credential %s grants %S but issuer %s can be authorized at most %S along any chain"
                 i.fp (List.nth values i.grant) subj (List.nth values cp));
          (match config.now with
          | Some t when i.deadline < t ->
            add Expired fp subj
              (Printf.sprintf "credential %s expired at %g (now %g)" i.fp i.deadline t)
          | _ -> ());
          let chain_dl = dl_full i.auth in
          if chain_dl < i.deadline then
            add Expiry_shadowed fp subj
              (Printf.sprintf
                 "credential %s: upstream chain expires at %g, before %s — the chain dies earlier than the credential suggests"
                 i.fp chain_dl
                 (if i.deadline = infinity then "its unbounded validity"
                  else Printf.sprintf "its own deadline %g" i.deadline))
        end
      end)
    cred_infos;
  let findings =
    List.sort
      (fun a b ->
        let key f =
          ( (match f.fingerprint with Some fp -> fp | None -> ""),
            kind_name f.kind,
            f.message )
        in
        let ka = key a and kb = key b in
        Stdlib.compare ka kb)
      !findings
  in
  {
    findings;
    n_policy = List.length pol_infos;
    n_credentials = List.length cred_infos;
    n_principals = List.length principals;
    n_reachable = List.length (List.filter (fun p -> ceil_full p >= 0) principals);
  }

let render r =
  let b = Buffer.create 256 in
  List.iter
    (fun f -> Buffer.add_string b (Printf.sprintf "[%s] %s\n" (kind_name f.kind) f.message))
    r.findings;
  let n = List.length r.findings in
  Buffer.add_string b
    (Printf.sprintf "%d policy + %d credentials, %d principals (%d reachable): %s\n" r.n_policy
       r.n_credentials r.n_principals r.n_reachable
       (if n = 0 then "clean" else Printf.sprintf "%d finding%s" n (if n = 1 then "" else "s")));
  Buffer.contents b

(* --- loading a store from disk ---------------------------------------- *)

exception Load_error of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | entries -> (
    let entries = Array.to_list entries |> List.sort String.compare in
    let policy = ref [] and creds = ref [] in
    let rkeys = ref [] and rfps = ref [] in
    try
      List.iter
        (fun name ->
          let full = Filename.concat dir name in
          if name = "" || name.[0] = '.' || Sys.is_directory full
             || starts_with ~prefix:"README" name
          then ()
          else if name = "revoked" || name = "revoked.txt" then
            String.split_on_char '\n' (read_file full)
            |> List.iter (fun line ->
                   let line = String.trim line in
                   if line <> "" && line.[0] <> '#' then
                     if String.contains line ':' then rkeys := line :: !rkeys
                     else rfps := line :: !rfps)
          else
            match Assertion.parse (read_file full) with
            | exception Assertion.Parse_error m -> raise (Load_error (name ^ ": " ^ m))
            | a ->
              if String.equal a.Assertion.authorizer "POLICY" then policy := a :: !policy
              else creds := a :: !creds)
        entries;
      let rkeys = List.rev !rkeys and rfps = List.rev !rfps in
      Ok
        ( List.rev !policy,
          List.rev !creds,
          fun c ->
            {
              c with
              revoked_keys = c.revoked_keys @ rkeys;
              revoked_fingerprints = c.revoked_fingerprints @ rfps;
            } )
    with Load_error m -> Error m)

let run_dir ~config dir =
  match load_dir dir with
  | Error m -> Error m
  | Ok (policy, credentials, add_revocations) ->
    Ok (analyze ~config:(add_revocations config) ~policy ~credentials ())
