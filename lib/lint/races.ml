(* Pass D: shared-state escape analysis at spawn points.

   The concurrent testbed is cooperative: a process owns the world
   between yields, so a data race here is never a torn write — it is
   shared mutable state reached from two processes with a yield
   between a check and the act that depends on it. The static half of
   the race detector inventories exactly the values that make such an
   interleaving possible: every mutable value captured by a closure
   handed to the scheduler ([Sched.spawn]/[spawn_at]/[spawn_after],
   or [Arrival.drive], which spawns on the caller's behalf), directly
   or through one level of call indirection (a named local function
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
     justification string is mandatory, and its absence is itself a
     finding.

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

let spawn_points = [ "Sched.spawn"; "Sched.spawn_at"; "Sched.spawn_after"; "Arrival.drive" ]

(* Scheduler infrastructure threads through every process by design;
   flagging it would drown the report. The scheduler and clock are
   mutated only by the scheduler's own machinery. *)
let infra_suffixes = [ "Sched.t"; "Clock.t"; "Sched.handle"; "Cost.t" ]

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

(* --- scan context ------------------------------------------------------ *)

type ctx = {
  source_root : string;
  libdirs : (string, string) Hashtbl.t;  (** library name -> lib/<dir> *)
  annotated : (string, bool) Hashtbl.t;  (** source path -> atomic-section? *)
  sources : (string, string array) Hashtbl.t;  (** source path -> lines *)
}

(* dune library stanzas name the wrapped top module; map each
   "(name foo)" to its directory so "Foo__Bar.t" resolves to
   lib/<dir>/bar.ml. *)
let scan_libdirs source_root =
  let tbl = Hashtbl.create 32 in
  let libroot = Filename.concat source_root "lib" in
  (match Sys.readdir libroot with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun d ->
        let dune = Filename.concat (Filename.concat libroot d) "dune" in
        match Rules.read_file dune with
        | None -> ()
        | Some text -> (
          let marker = "(name " in
          match
            let rec find i =
              if i + String.length marker > String.length text then None
              else if String.sub text i (String.length marker) = marker then Some i
              else find (i + 1)
            in
            find 0
          with
          | None -> ()
          | Some i ->
            let start = i + String.length marker in
            let stop =
              match String.index_from_opt text start ')' with
              | Some j -> j
              | None -> String.length text
            in
            let name = String.trim (String.sub text start (stop - start)) in
            if name <> "" then Hashtbl.replace tbl name (Filename.concat "lib" d)))
      entries);
  tbl

let create_ctx ~source_root =
  {
    source_root;
    libdirs = scan_libdirs source_root;
    annotated = Hashtbl.create 64;
    sources = Hashtbl.create 64;
  }

let atomic_annotated ctx path =
  match Hashtbl.find_opt ctx.annotated path with
  | Some b -> b
  | None ->
    let b =
      match Rules.read_file (Filename.concat ctx.source_root path) with
      | None -> false
      | Some text ->
        let marker = "discfs-lint: atomic-section" in
        let n = String.length text and m = String.length marker in
        let rec go i = i + m <= n && (String.sub text i m = marker || go (i + 1)) in
        go 0
    in
    Hashtbl.replace ctx.annotated path b;
    b

let source_lines ctx path =
  match Hashtbl.find_opt ctx.sources path with
  | Some lines -> lines
  | None ->
    let lines =
      match Rules.read_file (Filename.concat ctx.source_root path) with
      | None -> [||]
      | Some text -> Array.of_list (String.split_on_char '\n' text)
    in
    Hashtbl.replace ctx.sources path lines;
    lines

(* The per-site suppression: "discfs-lint: allow races" on the spawn
   line or the line above, with the justification as the first quoted
   string after the marker. *)
let site_suppression ctx ~file ~line =
  let lines = source_lines ctx file in
  let check l =
    if l < 1 || l > Array.length lines then None
    else
      let text = lines.(l - 1) in
      let marker = "discfs-lint: allow races" in
      let mn = String.length marker and n = String.length text in
      let rec find i =
        if i + mn > n then None
        else if String.sub text i mn = marker then Some (i + mn)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some after -> (
        match String.index_from_opt text after '"' with
        | None -> Some None
        | Some q1 -> (
          match String.index_from_opt text (q1 + 1) '"' with
          | None -> Some None
          | Some q2 -> Some (Some (String.sub text (q1 + 1) (q2 - q1 - 1)))))
  in
  match check line with Some j -> Some j | None -> check (line - 1)

(* Resolve the source file owning a type constructor, for the
   atomic-section lookup. [raw] is the unnormalized [Path.name]:
   "Simnet__Stats.t" and "Simnet.Stats.t" resolve through the dune
   library map; a bare "Gen.t" is a sibling module of the file being
   linted; a lone "t" is the file itself. *)
let owner_file ctx ~current raw =
  (* "Simnet__Stats" -> ("simnet", "stats"); split on the *last* "__"
     so wrapped names with underscored units ("Discfs__Policy_cache")
     keep the unit intact. *)
  let split_wrap comp =
    let n = String.length comp in
    let rec last j best =
      if j >= n - 1 then best
      else if comp.[j] = '_' && comp.[j + 1] = '_' then last (j + 1) (Some j)
      else last (j + 1) best
    in
    match last 0 None with
    | Some j when j > 0 && j + 2 < n ->
      Some
        ( String.lowercase_ascii (String.sub comp 0 j),
          String.lowercase_ascii (String.sub comp (j + 2) (n - j - 2)) )
    | _ -> None
  in
  match String.split_on_char '.' raw with
  | [] | [ _ ] -> Some current
  | first :: rest -> (
    match split_wrap first with
    | Some (libname, modname) ->
      Option.map
        (fun dir -> Filename.concat dir (modname ^ ".ml"))
        (Hashtbl.find_opt ctx.libdirs libname)
    | None -> (
      let lowered = String.lowercase_ascii first in
      match (Hashtbl.find_opt ctx.libdirs lowered, rest) with
      | Some dir, modname :: _ :: _ ->
        (* "Simnet.Stats.t": library top module, then the unit. *)
        Some (Filename.concat dir (String.lowercase_ascii modname ^ ".ml"))
      | _ ->
        (* "Gen.t": a sibling unit of the current file. *)
        Some (Filename.concat (Filename.dirname current) (lowered ^ ".ml"))))

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

let check_structure ctx ~src ~entries str =
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
    let suppression = site_suppression ctx ~file:src ~line in
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
                  match owner_file ctx ~current:src raw with
                  | Some file when atomic_annotated ctx file -> Some file
                  | _ -> None)
              in
              match (mediated, suppression) with
              | Some file, _ -> (Atomic_section file, kind)
              | None, Some (Some why) -> (Suppressed why, kind)
              | None, Some None -> (Missing_justification, kind)
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

(* The envs stored in .cmt files are stripped to summaries;
   rebuilding them (for [Env.find_type] on record declarations and
   for alias-normalizing type paths) needs the .cmi files on the
   load path. Each scanned .cmt's own directory plus the stdlib is
   enough for a dune build tree. *)
let seen_dirs : (string, unit) Hashtbl.t = Hashtbl.create 16

let ensure_load_path cmt_path =
  if Hashtbl.length seen_dirs = 0 then begin
    Load_path.init ~auto_include:Load_path.no_auto_include [ Config.standard_library ];
    Hashtbl.replace seen_dirs Config.standard_library ()
  end;
  let dir = Filename.dirname cmt_path in
  if not (Hashtbl.mem seen_dirs dir) then begin
    Load_path.add_dir dir;
    Hashtbl.replace seen_dirs dir ();
    Envaux.reset_cache ()
  end

let check_cmt ctx cmt_path =
  ensure_load_path cmt_path;
  match Cmt_format.read_cmt cmt_path with
  | exception e -> Error (cmt_path ^ ": " ^ Printexc.to_string e)
  | infos -> (
    let src = match infos.Cmt_format.cmt_sourcefile with Some s -> s | None -> cmt_path in
    if Filename.check_suffix src "-gen" then Ok []
    else
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
        let entries = ref [] in
        check_structure ctx ~src ~entries str;
        Ok (List.sort_uniq compare_entry !entries)
      | _ -> Error (cmt_path ^ ": no implementation typed tree"))

let scan ~source_root cmts =
  let ctx = create_ctx ~source_root in
  let entries = ref [] and errors = ref [] in
  List.iter
    (fun cmt ->
      match check_cmt ctx cmt with
      | Ok es -> entries := es @ !entries
      | Error m -> errors := m :: !errors)
    cmts;
  (List.sort_uniq compare_entry !entries, List.rev !errors)

(* --- machine-readable output ------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_entries entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"pass\":\"races\",\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"spawn\":\"%s\",\"value\":\"%s\",\"kind\":\"%s\",\"status\":\"%s\""
           (json_escape e.e_file) e.e_line e.e_col (json_escape e.e_spawn)
           (json_escape e.e_value) (json_escape e.e_kind) (status_name e.e_status));
      (match e.e_status with
      | Suppressed why ->
        Buffer.add_string b (Printf.sprintf ",\"justification\":\"%s\"" (json_escape why))
      | Atomic_section file ->
        Buffer.add_string b (Printf.sprintf ",\"owner\":\"%s\"" (json_escape file))
      | _ -> ());
      Buffer.add_char b '}')
    entries;
  Buffer.add_string b
    (Printf.sprintf "],\"violations\":%d}"
       (List.length (List.filter is_violation entries)));
  Buffer.contents b
