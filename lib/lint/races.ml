(* Pass D: shared-state escape analysis at spawn points.

   The concurrent testbed is cooperative: a process owns the world
   between yields, so a data race here is never a torn write — it is
   shared mutable state reached from two processes with a yield
   between a check and the act that depends on it. The static half of
   the race detector inventories exactly the values that make such an
   interleaving possible: every mutable value captured by a closure
   handed to the scheduler ([Sched.spawn]/[spawn_at]), directly or
   through one level of call indirection (a named local function
   passed as the process body).

   Capture alone is not a verdict. The pass classifies each captured
   value against the approved mediation surfaces:

   - values whose type involves [Sched.Mailbox.t] are
     mailbox-mediated (the one blessed cross-process channel);
   - values whose type is owned by a module carrying a
     [(* discfs-lint: atomic-section *)] annotation are mediated by
     that module's slice-atomicity discipline (every mutation
     completes without yielding, or the module is instrumented by
     [lib/race] and audited dynamically);
   - a spawn site under a [(* discfs-lint: allow races "why" *)]
     comment (same line or the line above) is suppressed — but the
     justification string is mandatory, and its absence (or an empty
     one) is itself a finding.

   Everything else mutable — escaping [ref]s, [Hashtbl]/[Queue]/
   [Buffer] values, records with mutable fields, and the curated
   shared abstract types below — is a violation. The inventory
   (including the clean entries) is what [--json] emits; the text
   report prints violations only. *)

type status =
  | Violation
  | Mailbox_mediated
  | Atomic_section of string  (** the annotated owning source file *)
  | Suppressed of string  (** the per-site justification *)
  | Missing_justification

type entry = {
  e_file : string;  (** repo-relative source of the spawn site *)
  e_line : int;
  e_col : int;
  e_spawn : string;  (** the spawn entry point, normalized *)
  e_value : string;  (** the captured identifier *)
  e_kind : string;  (** why the value counts as shared mutable state *)
  e_status : status;
}

let status_name = function
  | Violation -> "violation"
  | Mailbox_mediated -> "mailbox-mediated"
  | Atomic_section _ -> "atomic-section"
  | Suppressed _ -> "suppressed"
  | Missing_justification -> "missing-justification"

let is_violation e =
  match e.e_status with Violation | Missing_justification -> true | _ -> false

let compare_entry a b =
  let c = String.compare a.e_file b.e_file in
  if c <> 0 then c
  else
    let c = Int.compare a.e_line b.e_line in
    if c <> 0 then c
    else
      let c = Int.compare a.e_col b.e_col in
      if c <> 0 then c else String.compare a.e_value b.e_value

let render_entry e =
  let head =
    Printf.sprintf "%s:%d:%d: [races] '%s' (%s) captured by %s" e.e_file e.e_line e.e_col
      e.e_value e.e_kind e.e_spawn
  in
  match e.e_status with
  | Violation ->
    head
    ^ "; mediate through Sched.Mailbox or an atomic-section module, or suppress with \
       (* discfs-lint: allow races \"why\" *)"
  | Missing_justification ->
    head
    ^ " under an 'allow races' comment with no justification string — say why the \
       interleaving is safe"
  | Mailbox_mediated -> head ^ " — mailbox-mediated (clean)"
  | Atomic_section file -> head ^ " — mediated by atomic-section module " ^ file
  | Suppressed why -> Printf.sprintf "%s — suppressed: \"%s\"" head why

(* --- what counts as a spawn point, and what as mutable ----------------- *)

let spawn_points = [ "Sched.spawn"; "Sched.spawn_at" ]

(* Scheduler infrastructure threads through every process by design;
   flagging it would drown the report. The scheduler and clock are
   mutated only by the scheduler's own machinery. *)
let infra_suffixes = [ "Sched.t"; "Clock.t"; "Cost.t" ]

let mailbox_suffix = "Sched.Mailbox.t"

(* Builtin containers: mutable, with no mediating module of their own
   — capture must be suppressed per site. *)
let container_suffixes = [ "Hashtbl.t"; "Queue.t"; "Buffer.t"; "Stack.t" ]

(* Shared mutable abstract types in this tree. Their mutability is
   behind an interface, so the record-field probe below cannot see
   it; the list pins the ones a spawn closure can plausibly touch.
   Mediation is decided by the owning module's annotation. *)
let shared_abstract_suffixes =
  [
    "Stats.t";
    "Metrics.t";
    "Metrics.histogram";
    "Trace.t";
    "Rpc.server";
    "Rpc.client";
    "Link.t";
    "Fault.t";
    "Drbg.t";
    "Blockdev.t";
    "Bcache.t";
    "Fs.t";
    "Server.t";
    "Client.t";
    "Policy_cache.t";
    "Cache.t";
    "Cluster.t";
    "Cluster_client.t";
    "Gen.t";
  ]

(* --- owning modules ------------------------------------------------------ *)

(* Resolve the source file owning a type constructor, for the
   atomic-section lookup. [raw] is the unnormalized [Path.name]:
   "Simnet__Stats.t" and "Simnet.Stats.t" resolve through the dune
   library map; a bare "Gen.t" is a sibling module of the file being
   linted; a lone "t" is the file itself. *)
let owner_file ~source_root ~current raw =
  let libdir name =
    List.assoc_opt (String.lowercase_ascii name) (Source.lib_dirs ~root:source_root)
  in
  let unit_file dir m = Filename.concat dir (String.lowercase_ascii m ^ ".ml") in
  match String.split_on_char '.' raw with
  | [] | [ _ ] -> Some current
  | first :: rest -> (
    match Source.split_wrap first with
    | Some (libname, modname) -> Option.map (fun dir -> unit_file dir modname) (libdir libname)
    | None -> (
      match (libdir first, rest) with
      | Some dir, modname :: _ :: _ ->
        (* "Simnet.Stats.t": library top module, then the unit. *)
        Some (unit_file dir modname)
      | _ ->
        (* "Gen.t": a sibling unit of the current file. *)
        Some (unit_file (Filename.dirname current) first)))

let atomic_annotated ~source_root file =
  Source.has_directive (Filename.concat source_root file) ~keyword:"atomic-section"

(* --- type classification ----------------------------------------------- *)

(* Why a captured value counts as shared mutable state, if it does.
   [`Mut (kind, owner_raw)]: [owner_raw] is the unnormalized type
   path when a module mediates the type, [None] for builtins. *)
let classify_type env ty =
  let rec probe depth ty =
    if depth > 10 then None
    else
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) -> (
        (* Canonicalize the module prefix so local aliases
           ([module Metrics = Trace.Metrics]) resolve to the real
           owning unit before the file lookup. *)
        let p =
          match Env.normalize_type_path None env p with
          | exception Not_found -> p
          | p -> p
        in
        let raw = Path.name p in
        let name = Rules.normalize_name raw in
        if List.exists (Rules.suffix_matches name) infra_suffixes then None
        else if Rules.suffix_matches name mailbox_suffix then Some `Mailbox
        else if name = "ref" then Some (`Mut ("ref", None))
        else if List.exists (Rules.suffix_matches name) container_suffixes then
          Some (`Mut (name, None))
        else if List.exists (Rules.suffix_matches name) shared_abstract_suffixes then
          Some (`Mut ("shared " ^ name, Some raw))
        else
          let decl = match Env.find_type p env with exception Not_found -> None | d -> Some d in
          let record_mutable =
            match decl with
            | Some { Types.type_kind = Types.Type_record (lbls, _); _ } ->
              List.exists (fun l -> l.Types.ld_mutable = Asttypes.Mutable) lbls
            | _ -> false
          in
          if record_mutable then Some (`Mut ("mutable record " ^ name, Some raw))
          else
            (* Probe inside: type arguments (an array of reply
               mailboxes is still mailbox-mediated), record fields
               where the declaration is visible (a record holding a
               Hashtbl is shared mutable state even with every field
               immutable), and manifests of visible aliases. *)
            let inner =
              args
              @ (match decl with
                | Some { Types.type_kind = Types.Type_record (lbls, _); _ } ->
                  List.map (fun l -> l.Types.ld_type) lbls
                | _ -> [])
              @ (match decl with
                | Some { Types.type_manifest = Some m; _ } -> [ m ]
                | _ -> [])
            in
            let inside =
              List.fold_left
                (fun acc a -> match acc with Some (`Mut _) -> acc | _ -> (
                   match probe (depth + 1) a with
                   | Some (`Mut _) as m -> m
                   | Some `Mailbox -> (match acc with Some _ -> acc | None -> Some `Mailbox)
                   | None -> acc))
                None inner
            in
            (* A mutable interior makes the *named* type the entry:
               "server (holds Hashtbl.t)" reads better than "Hashtbl.t"
               and resolves mediation against the owning module. *)
            (match inside with
            | Some (`Mut (why, _)) when name <> "option" && name <> "list" && name <> "array" ->
              Some (`Mut (Printf.sprintf "%s (holds %s)" name why, Some raw))
            | r -> r))
      | Types.Ttuple ts ->
        List.fold_left
          (fun acc a -> match acc with Some (`Mut _) -> acc | _ -> (
             match probe (depth + 1) a with
             | Some (`Mut _) as m -> m
             | Some `Mailbox -> (match acc with Some _ -> acc | None -> Some `Mailbox)
             | None -> acc))
          None ts
      | _ -> None
  in
  probe 0 ty

(* --- the typed-tree walk ----------------------------------------------- *)

let ident_key id = Ident.unique_name id

(* Free identifiers of a closure: every [Pident] reference inside it
   whose binder is not itself inside the closure. Idents carry unique
   stamps, so "bound anywhere within the closure subtree" is exact. *)
let captured_idents closure =
  let open Typedtree in
  let bound = Hashtbl.create 32 in
  let used = ref [] in
  let super = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace bound (ident_key id) ()
    | Tpat_alias (_, id, _) -> Hashtbl.replace bound (ident_key id) ()
    | _ -> ());
    super.pat it p
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      used := (id, e.exp_type, e.exp_env) :: !used
    | Texp_function { param; _ } -> Hashtbl.replace bound (ident_key param) ()
    | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace bound (ident_key id) ()
    | _ -> ());
    super.expr it e
  in
  let it = { super with pat; expr } in
  it.expr it closure;
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (id, _, _) ->
      let k = ident_key id in
      if Hashtbl.mem bound k || Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    (List.rev !used)

let check_structure ~source_root ~src ~entries str =
  let open Typedtree in
  (* Pre-pass: named local functions, for the one-level indirection
     case ([let drain () = ... in Sched.spawn sched drain]). *)
  let defs = Hashtbl.create 32 in
  let note_binding vb =
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_function _ -> Hashtbl.replace defs (ident_key id) vb.vb_expr
    | _ -> ()
  in
  let super0 = Tast_iterator.default_iterator in
  let pre =
    {
      super0 with
      value_binding = (fun it vb -> note_binding vb; super0.value_binding it vb);
    }
  in
  pre.structure pre str;
  let spawn_name path =
    let name = Rules.normalize_name (Path.name path) in
    List.find_opt (Rules.suffix_matches name) spawn_points
  in
  let record_site ~loc ~spawn closure =
    let p = loc.Location.loc_start in
    let line = p.Lexing.pos_lnum in
    let col = p.Lexing.pos_cnum - p.Lexing.pos_bol in
    let suppression =
      Source.site_allowance (Filename.concat source_root src) ~line ~rule:"races"
    in
    List.iter
      (fun (id, ty, env) ->
        let env = try Envaux.env_of_only_summary env with _ -> env in
        match classify_type env ty with
        | None -> ()
        | Some cls ->
          let status, kind =
            match cls with
            | `Mailbox -> (Mailbox_mediated, "via " ^ mailbox_suffix)
            | `Mut (kind, owner_raw) -> (
              let mediated =
                match owner_raw with
                | None -> None
                | Some raw -> (
                  match owner_file ~source_root ~current:src raw with
                  | Some file when atomic_annotated ~source_root file -> Some file
                  | _ -> None)
              in
              match (mediated, suppression) with
              | Some file, _ -> (Atomic_section file, kind)
              | None, Some (Source.Justified why) -> (Suppressed why, kind)
              | None, Some Source.Unjustified -> (Missing_justification, kind)
              | None, None -> (Violation, kind))
          in
          entries :=
            {
              e_file = src;
              e_line = line;
              e_col = col;
              e_spawn = spawn;
              e_value = Ident.name id;
              e_kind = kind;
              e_status = status;
            }
            :: !entries)
      (captured_idents closure)
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) -> (
      match spawn_name path with
      | None -> ()
      | Some spawn ->
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some ({ exp_desc = Texp_function _; _ } as closure) ->
              record_site ~loc:e.exp_loc ~spawn closure
            | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> (
              match Hashtbl.find_opt defs (ident_key id) with
              | Some closure -> record_site ~loc:e.exp_loc ~spawn closure
              | None -> ())
            | _ -> ())
          args)
    | _ -> ());
    super0.expr it e
  in
  let it = { super0 with expr } in
  it.structure it str

let check_unit ~source_root (u : Source.unit_) =
  if Source.is_generated u then Ok []
  else
    match u.Source.annots with
    | Cmt_format.Implementation str ->
      let entries = ref [] in
      check_structure ~source_root ~src:u.Source.src ~entries str;
      Ok (List.sort_uniq compare_entry !entries)
    | _ -> Error (u.Source.cmt ^ ": no implementation typed tree")

let scan ~source_root cmts =
  let entries = ref [] and errors = ref [] in
  List.iter
    (fun cmt ->
      match Result.bind (Source.load cmt) (check_unit ~source_root) with
      | Ok es -> entries := es @ !entries
      | Error m -> errors := m :: !errors)
    cmts;
  (List.sort_uniq compare_entry !entries, List.rev !errors)

(* --- machine-readable output ------------------------------------------- *)

let json_of_entries entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"pass\":\"races\",\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"spawn\":\"%s\",\"value\":\"%s\",\"kind\":\"%s\",\"status\":\"%s\""
           (Source.json_escape e.e_file) e.e_line e.e_col (Source.json_escape e.e_spawn)
           (Source.json_escape e.e_value) (Source.json_escape e.e_kind) (status_name e.e_status));
      (match e.e_status with
      | Suppressed why ->
        Buffer.add_string b (Printf.sprintf ",\"justification\":\"%s\"" (Source.json_escape why))
      | Atomic_section file ->
        Buffer.add_string b (Printf.sprintf ",\"owner\":\"%s\"" (Source.json_escape file))
      | _ -> ());
      Buffer.add_char b '}')
    entries;
  Buffer.add_string b
    (Printf.sprintf "],\"violations\":%d}"
       (List.length (List.filter is_violation entries)));
  Buffer.contents b
