(* Pass C: documentation cross-reference checks. See the mli. *)

let ( // ) = Filename.concat

type finding = { file : string; line : int; message : string }

let render_finding f = Printf.sprintf "%s:%d: [doc] %s" f.file f.line f.message

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare a.message b.message

(* --- file access ------------------------------------------------------- *)

let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some (String.split_on_char '\n' s)

(* --- the library map --------------------------------------------------- *)

(* [lib_map ~root] maps each wrapped library's name (as it appears in
   module paths: "Discfs", "Oncrpc", ...) to its source directory, by
   reading the (name ...) stanza of every lib/<dir>/dune. Discovering
   the map keeps the checker honest when libraries are added or
   renamed: there is nothing to keep in sync by hand. *)
let dune_lib_name dune_path =
  let is_name_char = function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false in
  let name_of_line l =
    match String.split_on_char ' ' (String.trim l) with
    | "(name" :: rest :: _ -> (
      match String.split_on_char ')' rest with
      | name :: _ when name <> "" && String.for_all is_name_char name -> Some name
      | _ -> None)
    | _ -> None
  in
  Option.bind (read_lines dune_path) (List.find_map name_of_line)

let lib_map ~root =
  let libdir = root // "lib" in
  match Sys.readdir libdir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries |> List.sort String.compare
    |> List.filter_map (fun d ->
           let dir = libdir // d in
           if not (Sys.is_directory dir) then None
           else
             match dune_lib_name (dir // "dune") with
             | Some name -> Some (String.capitalize_ascii name, "lib" // d)
             | None -> None)

(* --- markdown surface -------------------------------------------------- *)

let is_fence l =
  let l = String.trim l in
  String.length l >= 3 && String.sub l 0 3 = "```"

(* Split a line at backticks: [`Text (seg, in_code)] in order. Code
   spans hold module and path references; everything else can hold
   links. *)
let segments line =
  String.split_on_char '`' line
  |> List.mapi (fun i seg -> (seg, i mod 2 = 1))

(* GitHub-style heading slugs: lowercase, spaces to hyphens, other
   punctuation dropped. Backticks and link syntax are stripped first. *)
let strip_links s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '[' -> (
        (* copy the link text, skip the (target) if present *)
        match String.index_from_opt s i ']' with
        | None -> Buffer.add_char b '['; go (i + 1)
        | Some j ->
          Buffer.add_string b (String.sub s (i + 1) (j - i - 1));
          if j + 1 < n && s.[j + 1] = '(' then
            match String.index_from_opt s (j + 1) ')' with
            | Some k -> go (k + 1)
            | None -> go (j + 1)
          else go (j + 1))
      | c -> Buffer.add_char b c; go (i + 1)
  in
  go 0;
  Buffer.contents b

let slug s =
  let s = String.concat "" (String.split_on_char '`' s) in
  let s = strip_links s in
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> Buffer.add_char b c
      | ' ' -> Buffer.add_char b '-'
      | _ -> ())
    (String.trim s);
  Buffer.contents b

let heading_text l =
  let n = String.length l in
  let rec hashes i = if i < n && l.[i] = '#' then hashes (i + 1) else i in
  let h = hashes 0 in
  if h >= 1 && h <= 6 && h < n && l.[h] = ' ' then
    Some (String.sub l (h + 1) (n - h - 1))
  else None

(* All anchor slugs of a file, with GitHub's -1/-2 suffixes for
   repeated headings. *)
let anchors lines =
  let seen = ref [] in
  let fence = ref false in
  List.filter_map
    (fun l ->
      if is_fence l then (fence := not !fence; None)
      else if !fence then None
      else
        match heading_text l with
        | None -> None
        | Some h ->
          let s = slug h in
          let n = try List.assoc s !seen with Not_found -> 0 in
          seen := (s, n + 1) :: List.remove_assoc s !seen;
          Some (if n = 0 then s else Printf.sprintf "%s-%d" s n))
    lines

(* --- link targets ------------------------------------------------------ *)

let is_external t =
  let has_prefix p = String.length t >= String.length p && String.sub t 0 (String.length p) = p in
  has_prefix "http://" || has_prefix "https://" || has_prefix "mailto:"
  || has_prefix "ftp://"

(* Resolve [target] (sans anchor) against the directory of [file];
   both are repo-relative. "" escapes the repo on too many "..". *)
let resolve ~file target =
  let base = match Filename.dirname file with "." -> [] | d -> String.split_on_char '/' d in
  let rec norm acc = function
    | [] -> Some (List.rev acc)
    | "" :: rest | "." :: rest -> norm acc rest
    | ".." :: rest -> ( match acc with _ :: tl -> norm tl rest | [] -> None)
    | p :: rest -> norm (p :: acc) rest
  in
  match norm (List.rev base) (String.split_on_char '/' target) with
  | Some parts -> String.concat "/" parts
  | None -> ""

(* Every "[text](target)" on the line (images included). Returns the
   raw targets. *)
let link_targets seg =
  let n = String.length seg in
  let rec go i acc =
    if i + 1 >= n then List.rev acc
    else if seg.[i] = ']' && seg.[i + 1] = '(' then
      match String.index_from_opt seg (i + 1) ')' with
      | None -> List.rev acc
      | Some j -> go (j + 1) (String.sub seg (i + 2) (j - i - 2) :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* --- code-span references ---------------------------------------------- *)

let is_module_char c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.'

(* "Discfs.Cluster_client.attach" -> Some ("Discfs", "Cluster_client");
   anything that is not a dotted path rooted in an uppercase component
   is ignored (plain identifiers, shell, prose). *)
let module_ref span =
  let span = String.trim span in
  if span = "" || not (String.for_all is_module_char span) then None
  else
    match String.split_on_char '.' span with
    | first :: second :: _
      when String.length first > 0
           && first.[0] >= 'A'
           && first.[0] <= 'Z'
           && String.length second > 0
           && second.[0] >= 'A'
           && second.[0] <= 'Z' ->
      Some (first, second)
    | _ -> None

let has_suffix suf s =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

(* "a.{x,y}.z" -> ["a.x.z"; "a.y.z"], every group expanded. *)
let rec expand_braces s =
  match (String.index_opt s '{', String.index_opt s '}') with
  | Some i, Some j when i < j ->
    String.split_on_char ',' (String.sub s (i + 1) (j - i - 1))
    |> List.concat_map (fun alt ->
           expand_braces (String.sub s 0 i ^ alt ^ String.sub s (j + 1) (String.length s - j - 1)))
  | _ -> [ s ]

(* A code span that names a source or doc file: contains a slash, no
   spaces or globs, a checkable extension, and no hidden top directory
   (dune copies none into the build tree the lint runs in). *)
let path_ref span =
  let span = String.trim span in
  if
    String.contains span '/'
    && (not (String.contains span ' '))
    && (not (String.contains span '*'))
    && not (String.length span > 1 && span.[0] = '.' && span.[1] <> '.' && span.[1] <> '/')
    && (has_suffix ".ml" span || has_suffix ".mli" span || has_suffix ".md" span)
  then Some span
  else None

(* Does [name] occur as a whole word anywhere in the [.mli] files of
   [dir]? Used as the fallback for capitalized non-module names. *)
let word_boundary c =
  not ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')

let contains_word ~name text =
  let n = String.length text and m = String.length name in
  let rec go i =
    if i + m > n then false
    else if
      String.sub text i m = name
      && (i = 0 || word_boundary text.[i - 1])
      && (i + m = n || word_boundary text.[i + m])
    then true
    else go (i + 1)
  in
  go 0

let name_in_dir ~root dir name =
  match Sys.readdir (root // dir) with
  | exception Sys_error _ -> false
  | entries ->
    Array.to_list entries
    |> List.exists (fun f ->
           has_suffix ".mli" f
           &&
           match read_lines (root // dir // f) with
           | None -> false
           | Some lines -> List.exists (contains_word ~name) lines)

(* --- the checker ------------------------------------------------------- *)

let check_file ~root ~libmap file =
  match read_lines (root // file) with
  | None -> [ { file; line = 0; message = "cannot read file" } ]
  | Some lines ->
    let findings = ref [] in
    let add line message = findings := { file; line; message } :: !findings in
    let anchor_cache = ref [] in
    let anchors_of path =
      match List.assoc_opt path !anchor_cache with
      | Some a -> a
      | None ->
        let a = match read_lines (root // path) with None -> [] | Some ls -> anchors ls in
        anchor_cache := (path, a) :: !anchor_cache;
        a
    in
    let check_target lineno target =
      if target = "" || is_external target || String.contains target ':' then ()
      else
        let path, anchor =
          match String.index_opt target '#' with
          | None -> (target, None)
          | Some i ->
            ( String.sub target 0 i,
              Some (String.sub target (i + 1) (String.length target - i - 1)) )
        in
        let resolved = if path = "" then file else resolve ~file path in
        if resolved = "" || not (Sys.file_exists (root // resolved)) then
          add lineno (Printf.sprintf "dead link: %s (no %s)" target resolved)
        else
          match anchor with
          | Some a when has_suffix ".md" resolved ->
            if not (List.mem a (anchors_of resolved)) then
              add lineno (Printf.sprintf "bad anchor: %s (no heading slugs to \"%s\" in %s)" target a resolved)
          | _ -> ()
    in
    let check_span lineno span =
      (match module_ref span with
      | Some (first, second) -> (
        match List.assoc_opt first libmap with
        | None -> ()
        | Some dir ->
          (* A capitalized second component is usually a submodule
             file, but can also be an exception or constructor
             (Xdr.Decode_error); fall back to looking for the bare
             name in the library's interfaces before complaining. *)
          let impl = dir // (String.uncapitalize_ascii second ^ ".ml") in
          if
            (not (Sys.file_exists (root // impl)))
            && not (name_in_dir ~root dir second)
          then
            add lineno
              (Printf.sprintf "stale module reference: %s.%s (no %s, name absent from %s)"
                 first second impl dir))
      | None -> ());
      match path_ref span with
      | Some p ->
        (* A brace group ("lib/nfs/{server,client}.ml") names one
           file per alternative; each must exist. *)
        List.iter
          (fun p ->
            if not (Sys.file_exists (root // p)) then
              add lineno (Printf.sprintf "stale path: %s (no such file)" p))
          (expand_braces p)
      | None -> ()
    in
    let fence = ref false in
    List.iteri
      (fun i l ->
        let lineno = i + 1 in
        if is_fence l then fence := not !fence
        else if not !fence then
          List.iter
            (fun (seg, in_code) ->
              if in_code then check_span lineno seg
              else List.iter (check_target lineno) (link_targets seg))
            (segments l))
      lines;
    List.rev !findings

let default_files ~root =
  let md_in dir rel =
    match Sys.readdir (root // dir) with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries |> List.sort String.compare
      |> List.filter (has_suffix ".md")
      |> List.map (fun f -> if rel = "" then f else rel // f)
  in
  md_in "." "" @ md_in "docs" "docs"

let check ~root files =
  let libmap = lib_map ~root in
  List.concat_map (check_file ~root ~libmap) files |> List.sort_uniq compare_finding

(* --- the counter catalogue --------------------------------------------- *)

let catalogue_file = "docs/PROTOCOL.md"

(* [(line, name)] for the code spans in the first cell of each table
   row between the "... Counter catalogue" heading and the next one. *)
let catalogue_entries lines =
  let rec rows acc = function
    | (i, l) :: rest when heading_text l = None ->
      let names =
        match String.split_on_char '|' (String.trim l) with
        | "" :: cell :: _ :: _ ->
          List.concat_map
            (fun (seg, code) -> if code then List.map (fun n -> (i, n)) (expand_braces seg) else [])
            (segments cell)
        | _ -> []
      in
      rows (names @ acc) rest
    | _ -> acc
  in
  let rec find = function
    | [] -> None
    | (_, l) :: rest -> (
      match heading_text l with
      | Some h when has_suffix "counter catalogue" (String.lowercase_ascii h) -> Some (rows [] rest)
      | _ -> find rest)
  in
  find (List.mapi (fun i l -> (i + 1, l)) lines)

(* [(file, line, name)] for every [Stats]/[Metrics] [incr]/[add] call
   in the OCaml source [file] whose counter name is a string literal. *)
let counted_names ~root file =
  let found = ref [] in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt; _ }; _ },
          _ :: (Nolabel, { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); _ }) :: _ ) -> (
      match List.rev (Longident.flatten txt) with
      | ("incr" | "add") :: ("Stats" | "Metrics") :: _ ->
        found := (file, e.pexp_loc.loc_start.pos_lnum, name) :: !found
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  let text = In_channel.with_open_bin (root // file) In_channel.input_all in
  it.structure it (Parse.implementation (Lexing.from_string text));
  !found

let rec ml_files ~root dir =
  Sys.readdir (root // dir) |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun e ->
         let rel = dir // e in
         if Sys.is_directory (root // rel) then ml_files ~root rel
         else if has_suffix ".ml" e then [ rel ]
         else [])

let check_counters ~root ~catalogue ~src =
  let finding file line fmt = Printf.ksprintf (fun message -> { file; line; message }) fmt in
  match Option.bind (read_lines (root // catalogue)) catalogue_entries with
  | None -> [ finding catalogue 0 "no readable \"Counter catalogue\" section" ]
  | Some entries ->
    let counted = List.concat_map (counted_names ~root) (ml_files ~root src) in
    let covers n (_, e) =
      match String.index_opt e '<' with
      | Some i -> String.length n > i && String.sub n 0 i = String.sub e 0 i
      | None -> String.equal e n
    in
    List.filter_map
      (fun (f, l, n) ->
        if List.exists (covers n) entries then None
        else
          Some (finding f l "undocumented counter: %s (not in the %s counter catalogue)" n catalogue))
      counted
    @ List.filter_map
        (fun (l, e) ->
          if List.length (List.filter (fun (_, e') -> String.equal e e') entries) > 1 then
            Some (finding catalogue l "counter listed twice: %s" e)
          else if String.contains e '<' || List.exists (fun (_, _, n) -> String.equal n e) counted
          then None
          else Some (finding catalogue l "stale counter: %s (counted nowhere under %s/)" e src))
        entries
    |> List.sort_uniq compare_finding
