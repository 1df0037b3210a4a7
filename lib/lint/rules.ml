(* Pass A: typed-AST lint over the .cmt files dune already produces.

   The checker deliberately works on *typed* trees, not source text:
   poly-compare needs the instantiated type of each `=`/`compare`
   occurrence, and secret-flow needs the types of arguments at call
   sites. Loading is compiler-libs' Cmt_format; traversal is a
   Tast_iterator with an overridden [expr] case. *)

type rule =
  | Determinism
  | Strict_determinism
  | Poly_compare
  | No_print
  | Decode_result
  | Secret_flow
  | Mli_coverage
  | Hotpath_alloc
  | C_boundary
  | Monitor_off

let rule_name = function
  | Determinism -> "determinism"
  | Strict_determinism -> "strict-determinism"
  | Poly_compare -> "poly-compare"
  | No_print -> "no-print"
  | Decode_result -> "decode-result"
  | Secret_flow -> "secret-flow"
  | Mli_coverage -> "mli-coverage"
  | Hotpath_alloc -> "hotpath-alloc"
  | C_boundary -> "c-boundary"
  | Monitor_off -> "monitor-off"

let rule_of_name = function
  | "determinism" -> Some Determinism
  | "strict-determinism" -> Some Strict_determinism
  | "poly-compare" -> Some Poly_compare
  | "no-print" -> Some No_print
  | "decode-result" -> Some Decode_result
  | "secret-flow" -> Some Secret_flow
  | "mli-coverage" -> Some Mli_coverage
  | "hotpath-alloc" -> Some Hotpath_alloc
  | "c-boundary" -> Some C_boundary
  | "monitor-off" -> Some Monitor_off
  | _ -> None

type role = Lib | Decode | Data | Kernel | Exe

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let role_of_path p =
  if
    starts_with ~prefix:"lib/xdr/" p || starts_with ~prefix:"lib/rpc/" p
    || starts_with ~prefix:"lib/ipsec/" p
  then Decode
  else if p = "lib/nfs/server.ml" || starts_with ~prefix:"lib/core/" p then Data
  else if starts_with ~prefix:"lib/crypto/" p then Kernel
  else if starts_with ~prefix:"lib/" p then Lib
  else Exe

let rules_for_role = function
  | Lib | Kernel ->
    [ Determinism; Poly_compare; No_print; Secret_flow; Mli_coverage; C_boundary; Monitor_off ]
  | Data ->
    [
      Determinism; Poly_compare; No_print; Secret_flow; Mli_coverage; C_boundary; Monitor_off;
      Hotpath_alloc;
    ]
  | Decode ->
    [
      Determinism; Poly_compare; No_print; Decode_result; Secret_flow; Mli_coverage;
      Hotpath_alloc; C_boundary; Monitor_off;
    ]
  | Exe -> [ Poly_compare; Secret_flow ]

type finding = { rule : rule; file : string; line : int; col : int; message : string }

let render_finding f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_name f.rule) f.message

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_name a.rule) (rule_name b.rule) in
        if c <> 0 then c else String.compare a.message b.message

(* --- suppression comments -------------------------------------------- *)

(* [allow] suppresses a rule for the file, [require] opts the file
   into one the role would not apply (the scheduler uses it to demand
   strict-determinism on itself). *)
let suppressed_rules path = List.filter_map rule_of_name (Source.directive_words path ~keyword:"allow")
let required_rules path = List.filter_map rule_of_name (Source.directive_words path ~keyword:"require")

(* --- path and type classification ------------------------------------ *)

(* Dune-wrapped modules appear as "Lib__Module"; stdlib units as
   "Stdlib.Module". Normalize both to the bare module chain, so
   "Bignum__Nat.t", "Bignum.Nat.t" and (from inside bignum) "Nat.t"
   all read "...Nat.t". *)
let normalize_name raw =
  let parts = String.split_on_char '.' raw |> List.map Source.strip_wrap in
  let parts = match parts with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l in
  String.concat "." parts

let normalize_path p = normalize_name (Path.name p)

let suffix_matches name suff =
  name = suff
  ||
  let ln = String.length name and ls = String.length suff in
  ln > ls && String.sub name (ln - ls) ls = suff && name.[ln - ls - 1] = '.'

(* Types whose structural comparison is a correctness or
   timing-discipline hazard: bignum limb arrays (normalization
   invariants), crypto key material, KeyNote assertions/principals
   (case-insensitive key hex, fingerprint identity). *)
let protected_type_suffixes =
  [
    "Nat.t";
    "Dsa.params";
    "Dsa.public";
    "Dsa.private_key";
    "Dsa.signature";
    "Dh.secret";
    "Dh.share";
    "Secret.t";
    "Assertion.t";
    "Ast.principal";
  ]

(* Types tagged secret: must never reach an observability sink. *)
let secret_type_suffixes = [ "Dsa.private_key"; "Dh.secret"; "Secret.t" ]

let path_in suffixes p =
  let n = normalize_path p in
  List.exists (suffix_matches n) suffixes

let rec type_contains pred depth ty =
  depth < 12
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> pred p || List.exists (type_contains pred (depth + 1)) args
  | Types.Ttuple ts -> List.exists (type_contains pred (depth + 1)) ts
  | Types.Tarrow (_, a, b, _) ->
    type_contains pred (depth + 1) a || type_contains pred (depth + 1) b
  | Types.Tpoly (t, _) -> type_contains pred (depth + 1) t
  | _ -> false

let first_param ty =
  match Types.get_desc ty with Types.Tarrow (_, a, _, _) -> Some a | _ -> None

(* --- per-rule ident/call tables --------------------------------------- *)

let deterministic_banned_modules = [ "Random"; "Unix"; "Marshal" ]

let deterministic_banned_values =
  [ "Sys.time"; "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.randomize" ]

(* Scheduler-critical modules additionally ban *unordered* hash-table
   iteration: the event order must be a pure function of the schedule
   calls, and Hashtbl's bucket layout depends on insertion history
   (and, if anyone flips H.randomize, on the process seed). Opted
   into per file with "(* discfs-lint: require strict-determinism *)";
   [strict_determinism_paths] pins the modules that must never drop
   the marker. *)
let strict_banned_values =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let strict_determinism_paths = [ "lib/simnet/sched.ml" ]

let print_banned_values =
  [
    "print_char"; "print_string"; "print_bytes"; "print_int"; "print_float";
    "print_endline"; "print_newline";
    "prerr_char"; "prerr_string"; "prerr_bytes"; "prerr_int"; "prerr_float";
    "prerr_endline"; "prerr_newline";
    "stdout"; "stderr";
    "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf";
    "Format.std_formatter"; "Format.err_formatter";
  ]

let poly_compare_paths = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ]

let in_module m name = starts_with ~prefix:(m ^ ".") name

let base_name name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Observability sinks for the secret-flow rule: the tracer, the
   Format layer, and printer-shaped functions. *)
let is_sink name =
  in_module "Trace" name || in_module "Format" name
  ||
  let b = base_name name in
  b = "pp" || b = "show" || starts_with ~prefix:"pp_" b || starts_with ~prefix:"show_" b

(* Monitor-off: a race monitor or a tracer that is switched off must
   cost nothing, so what is handed to it must not be built on every
   call. A [Race.read/check/act/write/note] argument that is a
   function application (a sprintf'd key, a [string_of_int], a
   [to_string] of a value) belongs under [if Race.enabled …]; an
   [~attrs] list for [Trace.span]/[Trace.instant] that is not a
   literal constant (or a value built elsewhere and passed by name)
   belongs under [if Trace.enabled …]. *)
let race_ops = [ "Race.read"; "Race.check"; "Race.act"; "Race.write"; "Race.note" ]
let trace_ops = [ "Trace.span"; "Trace.instant" ]

(* An optional argument given as [~l:e] reaches the callee as [Some e]. *)
let unwrap_some (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ x ]) -> x
  | _ -> e

let rec literal (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ -> true
  | Typedtree.Texp_construct (_, _, args) -> List.for_all literal args
  | Typedtree.Texp_tuple es -> List.for_all literal es
  | _ -> false

let builds_race_arg e =
  match (unwrap_some e).Typedtree.exp_desc with Typedtree.Texp_apply _ -> true | _ -> false

let builds_attrs e =
  let e = unwrap_some e in
  match e.Typedtree.exp_desc with Typedtree.Texp_ident _ -> false | _ -> not (literal e)

(* Does [e] mention [Race.enabled] (or whichever [suffix])? Used on an
   [if] condition to tell that its then-branch runs armed only. *)
let mentions suffix e =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) when suffix_matches (normalize_path p) suffix ->
      found := true
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

(* --- the typed-tree walk ---------------------------------------------- *)

(* C-boundary: a C stub receives raw pointers into OCaml strings and
   bytes, which stay valid only while no GC can run, so every external
   must be [@@noalloc]; and the stubs are kept in the one library whose
   OCaml side checks every size and range before the call. *)
let check_external ~role ~emit (vd : Typedtree.value_description) =
  let name = vd.Typedtree.val_name.Asttypes.txt in
  match vd.Typedtree.val_val.Types.val_kind with
  | Types.Val_prim _ when role <> Kernel ->
    emit C_boundary vd.Typedtree.val_loc
      (Printf.sprintf
         "external %s outside lib/crypto: C stubs live in lib/crypto, behind OCaml-side size and range checks"
         name)
  | Types.Val_prim prim when prim.Primitive.prim_alloc ->
    emit C_boundary vd.Typedtree.val_loc
      (Printf.sprintf
         "external %s is not [@@noalloc]: a stub handed Bytes pointers must not allocate or let the GC run"
         name)
  | _ -> ()

let string_shims = [ "Esp.seal"; "Esp.open_" ]

let check_structure ~role ~enabled ~emit str =
  let open Typedtree in
  let check_ident e path =
    let raw = Path.name path in
    let name = normalize_name raw in
    if enabled Determinism then begin
      if List.exists (fun m -> name = m || in_module m name) deterministic_banned_modules then
        emit Determinism e.exp_loc
          (Printf.sprintf "%s breaks simulation determinism; draw from the deployment's seeded Drbg/Fault.Rng and Simnet.Clock instead" name)
      else if List.mem name deterministic_banned_values then
        emit Determinism e.exp_loc
          (Printf.sprintf "%s is nondeterministic across runs; use virtual time / seeded hashing" name)
    end;
    if enabled Strict_determinism && List.mem name strict_banned_values then
      emit Strict_determinism e.exp_loc
        (Printf.sprintf
           "%s iterates in hash-bucket order in a strict-determinism module; event order must not depend on table layout — iterate a sorted key list"
           name);
    if enabled No_print then begin
      if List.mem name print_banned_values || starts_with ~prefix:"Format.print_" name then
        emit No_print e.exp_loc
          (Printf.sprintf "%s writes to the process's std streams; library observability goes through Trace" name)
    end;
    if enabled Decode_result && name = "failwith" then
      emit Decode_result e.exp_loc
        "failwith in a wire-decode layer: attacker-controlled input must fail via result or the layer's decode exception";
    (* In the wire layers the intermediate buffer is a fresh encoder;
       in the data path it is a payload copy: file data copied out of
       the volume instead of borrowed, or a WRITE payload copied out
       of the datagram instead of stored from where it lies. *)
    if enabled Hotpath_alloc && role <> Data && suffix_matches name "Enc.create" then
      emit Hotpath_alloc e.exp_loc
        "fresh Enc.create in a wire hot-path layer: encode into the channel's message arena (encode_*_into / Esp.arena), or justify the intermediate buffer per site with (* discfs-lint: allow hotpath-alloc \"why\" *)";
    if enabled Hotpath_alloc && role = Data
       && (suffix_matches name "Fs.read" || suffix_matches name "Dec.opaque")
    then
      emit Hotpath_alloc e.exp_loc
        (Printf.sprintf
           "%s copies payload bytes on the data path: borrow file data (Fs.read_pieces + Xdr.Enc.borrow) and take opaque arguments where they lie (Xdr.Dec.opaque_with), or justify the copy per site with (* discfs-lint: allow hotpath-alloc \"why\" *)"
           name);
    (* Both roles: the string ESP entry points copy the whole packet
       once more than the wire path does, so lib/ keeps one path per
       direction — seal an arena, open a datagram the receiver owns.
       Inside lib/ipsec/esp.ml the shims are bare names and never
       match. *)
    if enabled Hotpath_alloc && List.exists (suffix_matches name) string_shims then
      emit Hotpath_alloc e.exp_loc
        (Printf.sprintf
           "%s is a string shim that copies the whole packet: seal the message arena (Esp.seal_arena) and open the datagram the receiver owns (Esp.open_in_place), or justify the copy per site with (* discfs-lint: allow hotpath-alloc \"why\" *)"
           name);
    if enabled Poly_compare && List.mem raw poly_compare_paths then
      match first_param e.exp_type with
      | Some t when type_contains (path_in protected_type_suffixes) 0 t ->
        emit Poly_compare e.exp_loc
          (Printf.sprintf
             "polymorphic %s instantiated at a bignum/crypto/keynote type; use the module's dedicated comparison"
             (base_name raw))
      | _ -> ()
  in
  (* Depth of enclosing [if Race.enabled …] / [if Trace.enabled …]
     then-branches. *)
  let race_armed = ref 0 and trace_armed = ref 0 in
  let check_apply e fn args =
    match fn.exp_desc with
    | Texp_ident (path, _, _) ->
      let name = normalize_path path in
      if enabled Monitor_off then begin
        if !race_armed = 0 && List.exists (suffix_matches name) race_ops then
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some a when builds_race_arg a ->
                emit Monitor_off a.exp_loc
                  (Printf.sprintf
                     "%s argument built on every call: under Race.null it is thrown away; build it inside if Race.enabled ..."
                     name)
              | _ -> ())
            args;
        if !trace_armed = 0 && List.exists (suffix_matches name) trace_ops then
          List.iter
            (fun (label, arg) ->
              match (label, arg) with
              | (Asttypes.Labelled "attrs" | Asttypes.Optional "attrs"), Some a
                when builds_attrs a ->
                emit Monitor_off a.exp_loc
                  (Printf.sprintf
                     "non-constant ~attrs to %s built on every call: under Trace.null it is thrown away; build it only when Trace.enabled"
                     name)
              | _ -> ())
            args
      end;
      if enabled Secret_flow && is_sink name then
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some a when type_contains (path_in secret_type_suffixes) 0 a.exp_type ->
              emit Secret_flow a.exp_loc
                (Printf.sprintf "secret-typed value reaches %s; secrets must not flow to trace/format/show sinks" name)
            | _ -> ())
          args
    | _ -> ignore e
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_ifthenelse (cond, then_, else_) ->
      (* The then-branch of [if Race.enabled m …] runs only armed. *)
      it.Tast_iterator.expr it cond;
      let race = mentions "Race.enabled" cond and trace = mentions "Trace.enabled" cond in
      if race then incr race_armed;
      if trace then incr trace_armed;
      it.Tast_iterator.expr it then_;
      if race then decr race_armed;
      if trace then decr trace_armed;
      Option.iter (it.Tast_iterator.expr it) else_
    | _ ->
      (match e.exp_desc with
      | Texp_ident (path, _, _) -> check_ident e path
      | Texp_apply (fn, args) -> check_apply e fn args
      | Texp_assert ({ exp_desc = Texp_construct (_, { Types.cstr_name = "false"; _ }, _); _ }, _)
        when enabled Decode_result ->
        emit Decode_result e.exp_loc
          "assert false in a wire-decode layer: attacker-controlled input must fail via result or the layer's decode exception"
      | _ -> ());
      super.expr it e
  in
  let structure_item it item =
    (match item.str_desc with
    | Tstr_primitive vd when enabled C_boundary -> check_external ~role ~emit vd
    | _ -> ());
    super.structure_item it item
  in
  let it = { super with expr; structure_item } in
  it.structure it str

let check_unit ?role ~source_root (u : Source.unit_) =
  let src = u.Source.src in
  if Source.is_generated u then Ok []
  else
    match u.Source.annots with
    | Cmt_format.Implementation str ->
      let role = match role with Some r -> r | None -> role_of_path src in
      let active = rules_for_role role in
      let source_path = Filename.concat source_root src in
      let suppressed = suppressed_rules source_path in
      let required =
        (if List.mem src strict_determinism_paths then [ Strict_determinism ] else [])
        @ required_rules source_path
      in
      let enabled r =
        (List.mem r active || List.mem r required)
        && ((not (List.mem r suppressed)) || r = Hotpath_alloc)
      in
      let findings = ref [] in
      let emit rule (loc : Location.t) message =
        let p = loc.Location.loc_start in
        findings :=
          {
            rule;
            file = (if p.Lexing.pos_fname = "" then src else p.Lexing.pos_fname);
            line = p.Lexing.pos_lnum;
            col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
            message;
          }
          :: !findings
      in
      check_structure ~role ~enabled ~emit str;
      (* Hotpath-alloc is suppressed per *site*, never per file: the
         point of the rule is that every intermediate buffer on the
         wire path carries its own written-down reason. A marker with
         no justification keeps the finding, reworded. *)
      let resolved =
        List.filter_map
          (fun f ->
            if f.rule <> Hotpath_alloc then Some f
            else
              match Source.site_allowance source_path ~line:f.line ~rule:"hotpath-alloc" with
              | Some (Source.Justified _) -> None
              | Some Source.Unjustified ->
                let site, what =
                  if Source.find_sub f.message "is a string shim" 0 <> None then
                    ("string shim call", "copy")
                  else if role = Data then ("payload copy", "copy")
                  else ("Enc.create", "intermediate buffer")
                in
                Some
                  {
                    f with
                    message =
                      Printf.sprintf
                        "%s under an 'allow hotpath-alloc' comment with no justification \
                         string — say why the %s is needed in quotes"
                        site what;
                  }
              | None -> Some f)
          !findings
      in
      Ok (List.sort_uniq compare_finding resolved)
    | _ -> Error (u.Source.cmt ^ ": no implementation typed tree")

(* --- mli coverage (a source-tree rule, not a cmt rule) ----------------- *)

let check_mli_coverage ~source_root dir =
  let findings = ref [] in
  let rec walk rel =
    let full = Filename.concat source_root rel in
    if Sys.is_directory full then
      Sys.readdir full |> Array.to_list |> List.sort String.compare
      |> List.iter (fun name ->
             if name <> "" && name.[0] <> '.' && name <> "_build" then
               walk (Filename.concat rel name))
    else if Filename.check_suffix rel ".ml" then
      if not (Sys.file_exists (full ^ "i")) then
        if not (List.mem Mli_coverage (suppressed_rules full)) then
          findings :=
            {
              rule = Mli_coverage;
              file = rel;
              line = 1;
              col = 0;
              message = "library module has no interface file (.mli)";
            }
            :: !findings
  in
  if Sys.file_exists (Filename.concat source_root dir) then walk dir;
  List.sort compare_finding !findings
