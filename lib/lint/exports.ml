(* Pass E: exports that nothing uses. See the mli.

   Declarations and references meet on the start of the [val]'s
   location in its interface file, [(file, offset)]: the type checker
   copies a value's declaration (location included) into every
   module type it reaches through an alias, an include or a functor
   application, so the [value_description] at each use names the
   interface line that declared it.

   Knobs meet on the value's qualified name and the label: another
   unit's application names the interface, but the declaring unit's
   own applications name its implementation, so each implementation's
   top-level bindings are mapped to the names its interface gives
   them. *)

type status = Used | Test_only of string | Unjustified | Unreferenced

type export = {
  x_file : string;
  x_line : int;
  x_col : int;
  x_name : string;
  x_knob : string option;
  x_status : status;
}

let status_name x =
  match x.x_status with
  | Used -> "used"
  | Test_only _ -> "test-only"
  | Unjustified -> "unjustified"
  | Unreferenced -> if x.x_knob = None then "unreferenced" else "unpassed"

let display_name x =
  match x.x_knob with None -> x.x_name | Some l -> x.x_name ^ " ?" ^ l

type t = {
  decls : (string * int, string * Lexing.position) Hashtbl.t;  (** key -> name, start *)
  refs : (string * int, bool) Hashtbl.t;  (** key -> referenced outside the tests? *)
  knobs : (string * string, (string * int) * Lexing.position) Hashtbl.t;
      (** (name, label) -> the value's key, the parameter's start *)
  passes : (string * string, bool) Hashtbl.t;  (** (name, label) -> passed outside the tests? *)
}

let create () =
  {
    decls = Hashtbl.create 1024;
    refs = Hashtbl.create 4096;
    knobs = Hashtbl.create 256;
    passes = Hashtbl.create 256;
  }

(* Note a fact seen by a test unit or a non-test one; a non-test
   sighting wins. *)
let note_in tbl ~test k =
  match Hashtbl.find_opt tbl k with
  | Some false when not test -> Hashtbl.replace tbl k true
  | Some _ -> ()
  | None -> Hashtbl.replace tbl k (not test)

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* "Nfs__Cache" -> "Nfs.Cache". *)
let display_unit modname =
  match Source.split_wrap modname with Some (lib, unit) -> lib ^ "." ^ unit | None -> modname

let declare t (u : Source.unit_) =
  let rec signature prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
          let loc = vd.val_val.Types.val_loc and name = prefix ^ "." ^ vd.val_name.txt in
          Hashtbl.replace t.decls (key loc) (name, loc.loc_start);
          knobs (key loc) name vd.val_desc
        | Tsig_module md ->
          module_type (prefix ^ "." ^ Option.value md.md_name.txt ~default:"_") md.md_type
        | _ -> ())
      sg.sig_items
  and module_type prefix (mty : Typedtree.module_type) =
    match mty.mty_desc with
    | Tmty_signature sg -> signature prefix sg
    | Tmty_functor (_, result) -> module_type prefix result
    | _ -> ()
  (* Every optional parameter of the value's type, at its type's start. *)
  and knobs vkey name (ty : Typedtree.core_type) =
    match ty.ctyp_desc with
    | Ttyp_arrow (Optional l, arg, rest) ->
      Hashtbl.replace t.knobs (name, l) (vkey, arg.ctyp_loc.loc_start);
      knobs vkey name rest
    | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> knobs vkey name rest
    | _ -> ()
  in
  if not (Source.is_generated u) then
    match u.annots with Cmt_format.Interface sg -> signature (display_unit u.modname) sg | _ -> ()

(* The names the implementation's interface gives its top-level
   bindings, keyed like a use's [val_loc]; a later binding of a name
   shadows an earlier one. *)
let own_bindings (u : Source.unit_) str =
  let last = Hashtbl.create 64 in
  let rec structure prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) ->
                Hashtbl.replace last (prefix ^ "." ^ Ident.name id) vb.vb_pat.pat_loc
              | _ -> ())
            vbs
        | Tstr_module mb ->
          module_expr (prefix ^ "." ^ Option.value mb.mb_name.txt ~default:"_") mb.mb_expr
        | _ -> ())
      str.Typedtree.str_items
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> structure prefix str
    | Tmod_functor (_, body) | Tmod_constraint (body, _, _, _) -> module_expr prefix body
    | _ -> ()
  in
  structure (display_unit u.modname) str;
  let own = Hashtbl.create 64 in
  Hashtbl.iter (fun name loc -> Hashtbl.replace own (key loc) name) last;
  own

(* A unit's uses of its own values name its implementation, never its
   interface, so they do not count as references. Its applications of
   them do pass their knobs. The type checker fills an omitted
   optional argument of a full application with a [None] at a ghost
   location: that is no pass. *)
let reference_structure t ~test own str =
  let note loc = note_in t.refs ~test (key loc) in
  let super = Tast_iterator.default_iterator in
  let pass (vd : Types.value_description) args =
    let k = key vd.val_loc in
    let name =
      match Hashtbl.find_opt t.decls k with
      | Some (name, _) -> Some name
      | None -> Hashtbl.find_opt own k
    in
    Option.iter
      (fun name ->
        List.iter
          (function
            | Asttypes.Optional l, Some (arg : Typedtree.expression)
              when not arg.exp_loc.loc_ghost ->
              note_in t.passes ~test (name, l)
            | _ -> ())
          args)
      name
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> note vd.Types.val_loc
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> pass vd args
    | _ -> ());
    super.expr it e
  in
  let structure_item it (item : Typedtree.structure_item) =
    (match item.str_desc with
    | Tstr_include incl ->
      List.iter
        (function Types.Sig_value (_, vd, _) -> note vd.Types.val_loc | _ -> ())
        incl.incl_type
    | _ -> ());
    super.structure_item it item
  in
  let it = { super with expr; structure_item } in
  it.structure it str

let reference t ~test (u : Source.unit_) =
  if not (Source.is_generated u) then
    match u.annots with
    | Cmt_format.Implementation str -> reference_structure t ~test (own_bindings u str) str
    | _ -> ()

(* A test-only export or knob is a seam by intent only with a written
   reason: a per-site [allow test-only "why"] on its line or the line
   above. A knob of a justified test-only export shares its reason. *)
let exports t ~source_root =
  let allowance (pos : Lexing.position) =
    match
      Source.site_allowance (Filename.concat source_root pos.pos_fname) ~line:pos.pos_lnum
        ~rule:"test-only"
    with
    | Some (Source.Justified why) -> Test_only why
    | Some Source.Unjustified | None -> Unjustified
  in
  let entry (pos : Lexing.position) x_name x_knob x_status =
    let x_col = pos.pos_cnum - pos.pos_bol in
    { x_file = pos.pos_fname; x_line = pos.pos_lnum; x_col; x_name; x_knob; x_status }
  in
  let export_status k pos =
    match Hashtbl.find_opt t.refs k with
    | Some true -> Used
    | Some false -> allowance pos
    | None -> Unreferenced
  in
  let values =
    Hashtbl.fold
      (fun k (name, pos) acc -> entry pos name None (export_status k pos) :: acc)
      t.decls []
  in
  let knobs =
    Hashtbl.fold
      (fun (name, l) (vkey, pos) acc ->
        let status =
          match Hashtbl.find_opt t.passes (name, l) with
          | Some true -> Used
          | None -> Unreferenced
          | Some false -> (
            match (allowance pos, export_status vkey (snd (Hashtbl.find t.decls vkey))) with
            | (Test_only _ as s), _ | _, (Test_only _ as s) -> s
            | _ -> Unjustified)
        in
        entry pos name (Some l) status :: acc)
      t.knobs []
  in
  List.sort
    (fun a b -> compare (a.x_file, a.x_line, a.x_col) (b.x_file, b.x_line, b.x_col))
    (values @ knobs)

let is_finding x =
  match x.x_status with Unjustified | Unreferenced -> true | Used | Test_only _ -> false

let render x =
  Printf.sprintf "%s:%d:%d: [exports] %s %s" x.x_file x.x_line x.x_col (display_name x)
    (match (x.x_status, x.x_knob) with
    | Unjustified, None ->
      "is referenced only by tests; give the seam its reason with a \
       (* discfs-lint: allow test-only \"why\" *) on its val line or the line above, or delete \
       it and test the path the system runs"
    | Unjustified, Some _ ->
      "is passed only by tests; give the knob its reason with a (* discfs-lint: allow test-only \
       \"why\" *) on its line or the line above, or make it a constant and test the value the \
       system runs"
    | (Used | Test_only _ | Unreferenced), None ->
      "is exported but no other compilation unit references it; delete the export, and its \
       body unless the module uses it"
    | (Used | Test_only _ | Unreferenced), Some _ ->
      "is passed by no application; make it a constant, its default")

(* One inventory: the count, every entry that is not [Used], then the
   count of each other status. *)
let json_inventory ~pass ~unreferenced xs =
  let count p = List.length (List.filter (fun x -> p x.x_status) xs) in
  Printf.sprintf
    "{\"pass\":\"%s\",\"%s\":%d,\"entries\":[%s],\"test_only\":%d,\"unjustified\":%d,\"%s\":%d}"
    pass pass (List.length xs)
    (String.concat ","
       (List.filter_map
          (fun x ->
            match x.x_status with
            | Used -> None
            | Test_only _ | Unjustified | Unreferenced ->
              Some
                (Printf.sprintf
                   "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"name\":\"%s\",\"status\":\"%s\"%s}"
                   (Source.json_escape x.x_file) x.x_line x.x_col
                   (Source.json_escape (display_name x))
                   (status_name x)
                   (match x.x_status with
                   | Test_only why -> Printf.sprintf ",\"justification\":\"%s\"" (Source.json_escape why)
                   | Used | Unjustified | Unreferenced -> "")))
          xs))
    (count (function Test_only _ -> true | Used | Unjustified | Unreferenced -> false))
    (count (function Unjustified -> true | Used | Test_only _ | Unreferenced -> false))
    unreferenced
    (count (function Unreferenced -> true | Used | Test_only _ | Unjustified -> false))

let json_of_exports xs =
  json_inventory ~pass:"exports" ~unreferenced:"unreferenced"
    (List.filter (fun x -> x.x_knob = None) xs)

let json_of_knobs xs =
  json_inventory ~pass:"knobs" ~unreferenced:"unpassed" (List.filter (fun x -> x.x_knob <> None) xs)
