(* The lint passes' shared loader: source files, the directive
   grammar, the dune library map, wrapped names, compiled units and
   JSON escaping. See the mli. *)

let ( // ) = Filename.concat

(* --- source files ------------------------------------------------------ *)

let files : (string, string option) Hashtbl.t = Hashtbl.create 64

let read_file path =
  match Hashtbl.find_opt files path with
  | Some text -> text
  | None ->
    let text =
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))
    in
    Hashtbl.replace files path text;
    text

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* --- the directive grammar --------------------------------------------- *)

let marker = "discfs-lint:"

(* Every directive in [text]: [(start, words)], where [start] is the
   offset just past the marker and [words] runs from the keyword to
   the comment terminator or the end of the line. *)
let directives_in text =
  let rec collect acc from =
    match find_sub text marker from with
    | None -> List.rev acc
    | Some i ->
      let start = i + String.length marker in
      let eol = match String.index_from_opt text start '\n' with Some j -> j | None -> String.length text in
      let stop = match find_sub text "*)" start with Some j when j < eol -> j | _ -> eol in
      let words =
        String.sub text start (stop - start)
        |> String.split_on_char ' '
        |> List.concat_map (String.split_on_char ',')
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      collect ((start, words) :: acc) stop
  in
  collect [] 0

let file_directives path =
  match read_file path with None -> [] | Some text -> List.map snd (directives_in text)

let directive_words path ~keyword =
  List.concat_map
    (function kw :: words when kw = keyword -> words | _ -> [])
    (file_directives path)

let has_directive path ~keyword =
  List.exists (function kw :: _ -> kw = keyword | [] -> false) (file_directives path)

type site = Justified of string | Unjustified

(* The justification is the first quoted string after the rule name,
   anywhere on the rest of the line. *)
let site_on_line text ~rule =
  List.find_map
    (fun (start, words) ->
      match words with
      | "allow" :: r :: _ when r = rule -> (
        let after =
          match find_sub text rule start with Some i -> i + String.length rule | None -> start
        in
        match String.index_from_opt text after '"' with
        | None -> Some Unjustified
        | Some q1 -> (
          match String.index_from_opt text (q1 + 1) '"' with
          | Some q2 when q2 > q1 + 1 -> Some (Justified (String.sub text (q1 + 1) (q2 - q1 - 1)))
          | _ -> Some Unjustified))
      | _ -> None)
    (directives_in text)

let site_allowance path ~line ~rule =
  let ls =
    match read_file path with
    | None -> [||]
    | Some text -> Array.of_list (String.split_on_char '\n' text)
  in
  let at l = if l < 1 || l > Array.length ls then None else site_on_line ls.(l - 1) ~rule in
  match at line with Some s -> Some s | None -> at (line - 1)

(* --- names ------------------------------------------------------------- *)

let is_name_char = function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false

(* The first "(name foo)" line of a dune file. *)
let dune_lib_name path =
  let name_of_line l =
    match String.split_on_char ' ' (String.trim l) with
    | "(name" :: rest :: _ -> (
      match String.split_on_char ')' rest with
      | name :: _ when name <> "" && String.for_all is_name_char name -> Some name
      | _ -> None)
    | _ -> None
  in
  Option.bind (read_file path) (fun text ->
      List.find_map name_of_line (String.split_on_char '\n' text))

let lib_maps : (string, (string * string) list) Hashtbl.t = Hashtbl.create 2

let lib_dirs ~root =
  match Hashtbl.find_opt lib_maps root with
  | Some m -> m
  | None ->
    let m =
      match Sys.readdir (root // "lib") with
      | exception Sys_error _ -> []
      | entries ->
        Array.to_list entries |> List.sort String.compare
        |> List.filter_map (fun d ->
               if not (Sys.is_directory (root // "lib" // d)) then None
               else
                 Option.map
                   (fun name -> (name, "lib" // d))
                   (dune_lib_name (root // "lib" // d // "dune")))
    in
    Hashtbl.replace lib_maps root m;
    m

(* Split on the *last* "__", so units with underscores in their own
   name ("Discfs__Policy_cache") stay whole. *)
let split_wrap name =
  let n = String.length name in
  let rec last i best =
    if i >= n - 1 then best
    else if name.[i] = '_' && name.[i + 1] = '_' then last (i + 1) (Some i)
    else last (i + 1) best
  in
  match last 0 None with
  | Some i when i > 0 && i + 2 < n -> Some (String.sub name 0 i, String.sub name (i + 2) (n - i - 2))
  | _ -> None

let strip_wrap name = match split_wrap name with Some (_, unit) -> unit | None -> name

(* --- compiled units ---------------------------------------------------- *)

type unit_ = {
  cmt : string;
  src : string;
  modname : string;
  annots : Cmt_format.binary_annots;
}

(* The envs stored in .cmt files are stripped to summaries;
   rebuilding them (for [Env.find_type] on record declarations and
   for alias-normalizing type paths) needs the .cmi files on the
   load path. Each loaded unit's own directory plus the stdlib is
   enough for a dune build tree. *)
let seen_dirs : (string, unit) Hashtbl.t = Hashtbl.create 16

let ensure_load_path path =
  if Hashtbl.length seen_dirs = 0 then begin
    Load_path.init ~auto_include:Load_path.no_auto_include [ Config.standard_library ];
    Hashtbl.replace seen_dirs Config.standard_library ()
  end;
  let dir = Filename.dirname path in
  if not (Hashtbl.mem seen_dirs dir) then begin
    Load_path.add_dir dir;
    Hashtbl.replace seen_dirs dir ();
    Envaux.reset_cache ()
  end

let load path =
  ensure_load_path path;
  match Cmt_format.read_cmt path with
  | exception e -> Error (path ^ ": " ^ Printexc.to_string e)
  | infos ->
    Ok
      {
        cmt = path;
        src = Option.value infos.Cmt_format.cmt_sourcefile ~default:path;
        modname = infos.Cmt_format.cmt_modname;
        annots = infos.Cmt_format.cmt_annots;
      }

let is_generated u = Filename.check_suffix u.src "-gen"

let scan ~ext root =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun name ->
          let full = dir // name in
          if Sys.is_directory full then walk full
          else if Filename.check_suffix name ext then acc := full :: !acc)
        entries
  in
  walk root;
  List.sort String.compare !acc

(* --- output ------------------------------------------------------------ *)

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
