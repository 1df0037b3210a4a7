(* Pass E: exports that nothing uses. See the mli.

   Declarations and references meet on the start of the [val]'s
   location in its interface file, [(file, offset)]: the type checker
   copies a value's declaration (location included) into every
   module type it reaches through an alias, an include or a functor
   application, so the [value_description] at each use names the
   interface line that declared it. *)

type status = Used | Test_only of string | Unjustified | Unreferenced

type export = {
  x_file : string;
  x_line : int;
  x_col : int;
  x_name : string;
  x_status : status;
}

let status_name = function
  | Used -> "used"
  | Test_only _ -> "test-only"
  | Unjustified -> "unjustified"
  | Unreferenced -> "unreferenced"

type t = {
  decls : (string * int, string * Lexing.position) Hashtbl.t;  (** key -> name, start *)
  refs : (string * int, bool) Hashtbl.t;  (** key -> referenced outside the tests? *)
}

let create () = { decls = Hashtbl.create 1024; refs = Hashtbl.create 4096 }

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
          let loc = vd.val_val.Types.val_loc in
          Hashtbl.replace t.decls (key loc) (prefix ^ "." ^ vd.val_name.txt, loc.loc_start)
        | Tsig_module md ->
          module_type (prefix ^ "." ^ Option.value md.md_name.txt ~default:"_") md.md_type
        | _ -> ())
      sg.sig_items
  and module_type prefix (mty : Typedtree.module_type) =
    match mty.mty_desc with
    | Tmty_signature sg -> signature prefix sg
    | Tmty_functor (_, result) -> module_type prefix result
    | _ -> ()
  in
  if not (Source.is_generated u) then
    match u.annots with Cmt_format.Interface sg -> signature (display_unit u.modname) sg | _ -> ()

(* A unit's uses of its own values name its implementation, never its
   interface, so they do not count. *)
let reference t ~test (u : Source.unit_) =
  let note (loc : Location.t) =
    let k = key loc in
    match Hashtbl.find_opt t.refs k with
    | Some false when not test -> Hashtbl.replace t.refs k true
    | Some _ -> ()
    | None -> Hashtbl.replace t.refs k (not test)
  in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with Texp_ident (_, _, vd) -> note vd.Types.val_loc | _ -> ());
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
  if not (Source.is_generated u) then
    match u.annots with Cmt_format.Implementation str -> it.structure it str | _ -> ()

(* A test-only export is a seam by intent only with a written reason:
   a per-site [allow test-only "why"] on its [val] line or the line
   above. *)
let exports t ~source_root =
  Hashtbl.fold
    (fun k (name, (pos : Lexing.position)) acc ->
      let x_status =
        match Hashtbl.find_opt t.refs k with
        | Some true -> Used
        | Some false -> (
          match
            Source.site_allowance
              (Filename.concat source_root pos.pos_fname)
              ~line:pos.pos_lnum ~rule:"test-only"
          with
          | Some (Source.Justified why) -> Test_only why
          | Some Source.Unjustified | None -> Unjustified)
        | None -> Unreferenced
      in
      {
        x_file = pos.pos_fname;
        x_line = pos.pos_lnum;
        x_col = pos.pos_cnum - pos.pos_bol;
        x_name = name;
        x_status;
      }
      :: acc)
    t.decls []
  |> List.sort (fun a b -> compare (a.x_file, a.x_line, a.x_col) (b.x_file, b.x_line, b.x_col))

let is_finding x =
  match x.x_status with Unjustified | Unreferenced -> true | Used | Test_only _ -> false

let render x =
  Printf.sprintf "%s:%d:%d: [exports] %s %s" x.x_file x.x_line x.x_col x.x_name
    (match x.x_status with
    | Unjustified ->
      "is referenced only by tests; give the seam its reason with a \
       (* discfs-lint: allow test-only \"why\" *) on its val line or the line above, or delete \
       it and test the path the system runs"
    | Used | Test_only _ | Unreferenced ->
      "is exported but no other compilation unit references it; delete the export, and its \
       body unless the module uses it")

let json_of_exports xs =
  let count p = List.length (List.filter (fun x -> p x.x_status) xs) in
  Printf.sprintf
    "{\"pass\":\"exports\",\"exports\":%d,\"entries\":[%s],\"test_only\":%d,\"unjustified\":%d,\"unreferenced\":%d}"
    (List.length xs)
    (String.concat ","
       (List.filter_map
          (fun x ->
            match x.x_status with
            | Used -> None
            | Test_only _ | Unjustified | Unreferenced ->
              Some
                (Printf.sprintf
                   "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"name\":\"%s\",\"status\":\"%s\"%s}"
                   (Source.json_escape x.x_file) x.x_line x.x_col (Source.json_escape x.x_name)
                   (status_name x.x_status)
                   (match x.x_status with
                   | Test_only why -> Printf.sprintf ",\"justification\":\"%s\"" (Source.json_escape why)
                   | Used | Unjustified | Unreferenced -> "")))
          xs))
    (count (function Test_only _ -> true | Used | Unjustified | Unreferenced -> false))
    (count (function Unjustified -> true | Used | Test_only _ | Unreferenced -> false))
    (count (function Unreferenced -> true | Used | Test_only _ | Unjustified -> false))
