type t = {
  version : string option;
  authorizer : Ast.principal;
  licensees : Ast.licensees option;
  conditions : Ast.program option;
  local_constants : (string * string) list;
  comment : string option;
  signature : string option;
  body_text : string;
  full_text : string;
  fingerprint : string;
  handles : string list option;
}

exception Parse_error of string

let sig_alg = "sig-dsa-sha1-hex:"
let sig_alg_sha256 = "sig-dsa-sha256-hex:"

let principal_of_pub pub = "dsa-hex:" ^ Dcrypto.Hexcodec.encode (Dcrypto.Dsa.pub_encode pub)

let pub_of_principal p =
  let prefix = "dsa-hex:" in
  let plen = String.length prefix in
  if String.length p > plen && String.lowercase_ascii (String.sub p 0 plen) = prefix then
    match Dcrypto.Hexcodec.decode (String.sub p plen (String.length p - plen)) with
    | raw -> (try Some (Dcrypto.Dsa.pub_decode raw) with Invalid_argument _ -> None)
    | exception Invalid_argument _ -> None
  else None

(* --- Field splitting ---------------------------------------------- *)

(* An assertion is a sequence of "Name: value" fields; lines beginning
   with whitespace continue the previous field. We keep both the
   parsed fields and the byte offset where the Signature field starts,
   since the signature covers the exact preceding text. *)

type raw_field = { name : string; value : string; start_offset : int }

let split_fields text =
  let lines = String.split_on_char '\n' text in
  let fields = ref [] in
  let current = ref None in
  let offset = ref 0 in
  let flush () =
    match !current with
    | Some f -> fields := { f with value = String.trim f.value } :: !fields
    | None -> ()
  in
  List.iter
    (fun line ->
      let line_start = !offset in
      offset := !offset + String.length line + 1;
      if String.trim line = "" then ()
      else if line.[0] = ' ' || line.[0] = '\t' then begin
        match !current with
        | Some f -> current := Some { f with value = f.value ^ "\n" ^ line }
        | None -> raise (Parse_error "continuation line before any field")
      end
      else begin
        match String.index_opt line ':' with
        | None -> raise (Parse_error (Printf.sprintf "malformed field line: %S" line))
        | Some i ->
          flush ();
          current :=
            Some
              {
                name = String.lowercase_ascii (String.sub line 0 i);
                value = String.sub line (i + 1) (String.length line - i - 1);
                start_offset = line_start;
              }
      end)
    lines;
  flush ();
  List.rev !fields

(* --- Local-Constants ----------------------------------------------- *)

let parse_local_constants text =
  let toks = try Lexer.tokenize text with Lexer.Lex_error m -> raise (Parse_error m) in
  let rec go acc = function
    | Lexer.EOF :: _ | [] -> List.rev acc
    | Lexer.IDENT name :: Lexer.ASSIGN :: Lexer.STRING v :: rest -> go ((name, v) :: acc) rest
    | _ -> raise (Parse_error "malformed Local-Constants field")
  in
  go [] toks

(* --- Handle guard -------------------------------------------------- *)

(* The HANDLE values a test admits, when it is [HANDLE == lit] or a
   disjunction of such comparisons. *)
let rec handle_test = function
  | Ast.Eq (Ast.Attr "HANDLE", lit) | Ast.Eq (lit, Ast.Attr "HANDLE") ->
    (match lit with
    | Ast.Str s -> Some [ Expr.equality_key (Expr.V_str s) ]
    | Ast.Num f -> Some [ Expr.equality_key (Expr.V_num f) ]
    | _ -> None)
  | Ast.OrT (a, b) ->
    (match handle_test a, handle_test b with Some x, Some y -> Some (x @ y) | _ -> None)
  | _ -> None

let rec conjuncts = function Ast.AndT (a, b) -> conjuncts a @ conjuncts b | t -> [ t ]

(* Read off the syntax, conservatively: every clause needs a top-level
   conjunct that pins HANDLE, and no Local-Constant may shadow the
   query's HANDLE. Outside the set every clause is unsatisfied (its
   pinning conjunct is false or raises), so the conditions evaluate to
   the lowest value whatever else the query holds. *)
let handle_guard ~local_constants conditions =
  match conditions with
  | Some clauses when not (List.mem_assoc "HANDLE" local_constants) ->
    List.fold_left
      (fun acc (c : Ast.clause) ->
        match acc, List.find_map handle_test (conjuncts c.Ast.guard) with
        | Some keys, Some more -> Some (List.sort_uniq String.compare (more @ keys))
        | _ -> None)
      (Some []) clauses
  | _ -> None

(* --- Parse --------------------------------------------------------- *)

let parse_authorizer resolve text =
  let toks = try Lexer.tokenize text with Lexer.Lex_error m -> raise (Parse_error m) in
  match toks with
  | [ Lexer.STRING s; Lexer.EOF ] -> s
  | [ Lexer.IDENT name; Lexer.EOF ] -> resolve name
  | _ -> raise (Parse_error "Authorizer must be a single principal")

let parse text =
  let fields = split_fields text in
  if fields = [] then raise (Parse_error "empty assertion");
  let find name = List.find_opt (fun f -> f.name = name) fields in
  let constants = match find "local-constants" with
    | Some f -> parse_local_constants f.value
    | None -> []
  in
  let resolve name = match List.assoc_opt name constants with Some v -> v | None -> name in
  let authorizer =
    match find "authorizer" with
    | Some f -> parse_authorizer resolve f.value
    | None -> raise (Parse_error "missing Authorizer field")
  in
  let licensees =
    match find "licensees" with
    | Some f when String.trim f.value <> "" ->
      (try Some (Parser.licensees ~resolve f.value) with
      | Parser.Parse_error m | Lexer.Lex_error m -> raise (Parse_error ("Licensees: " ^ m)))
    | _ -> None
  in
  let conditions =
    match find "conditions" with
    | Some f when String.trim f.value <> "" ->
      (try Some (Parser.conditions f.value) with
      | Parser.Parse_error m | Lexer.Lex_error m -> raise (Parse_error ("Conditions: " ^ m)))
    | _ -> None
  in
  let signature, body_text =
    match find "signature" with
    | Some f ->
      let v =
        let toks = try Lexer.tokenize f.value with Lexer.Lex_error m -> raise (Parse_error m) in
        match toks with
        | [ Lexer.STRING s; Lexer.EOF ] -> s
        | _ -> raise (Parse_error "Signature must be a quoted string")
      in
      (Some v, String.sub text 0 f.start_offset)
    | None -> (None, text)
  in
  {
    version = (match find "keynote-version" with Some f -> Some f.value | None -> None);
    authorizer;
    licensees;
    conditions;
    local_constants = constants;
    comment = (match find "comment" with Some f -> Some f.value | None -> None);
    signature;
    body_text;
    full_text = text;
    fingerprint = Dcrypto.Hexcodec.encode (String.sub (Dcrypto.Sha1.digest text) 0 8);
    handles = handle_guard ~local_constants:constants conditions;
  }

(* --- Construction -------------------------------------------------- *)

let render_unsigned ?comment ?(local_constants = []) ~authorizer ~licensees ~conditions () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "KeyNote-Version: 2\n";
  if local_constants <> [] then begin
    Buffer.add_string buf "Local-Constants:";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "\n\t%s = \"%s\"" name v))
      local_constants;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf (Printf.sprintf "Authorizer: %s\n" authorizer);
  Buffer.add_string buf (Printf.sprintf "Licensees: %s\n" licensees);
  Buffer.add_string buf (Printf.sprintf "Conditions: %s\n" conditions);
  (match comment with
  | Some c -> Buffer.add_string buf (Printf.sprintf "Comment: %s\n" c)
  | None -> ());
  Buffer.contents buf

let issue ~key ~drbg ?(alg = `Dsa_sha1) ?comment ?local_constants ~licensees ~conditions () =
  let authorizer =
    Printf.sprintf "\"%s\"" (principal_of_pub key.Dcrypto.Dsa.pub)
  in
  let alg_name, hash =
    match alg with
    | `Dsa_sha1 -> (sig_alg, Dcrypto.Sha1.digest)
    | `Dsa_sha256 -> (sig_alg_sha256, Dcrypto.Sha256.digest)
  in
  let unsigned = render_unsigned ?comment ?local_constants ~authorizer ~licensees ~conditions () in
  let signature = Dcrypto.Dsa.sign ~hash ~key drbg (unsigned ^ alg_name) in
  let sig_hex = Dcrypto.Hexcodec.encode (Dcrypto.Dsa.sig_encode signature) in
  let full = unsigned ^ Printf.sprintf "Signature: \"%s%s\"\n" alg_name sig_hex in
  parse full

let policy ?local_constants ~licensees ~conditions () =
  let unsigned =
    render_unsigned ?local_constants ~authorizer:"POLICY" ~licensees ~conditions ()
  in
  parse unsigned

(* --- Verification -------------------------------------------------- *)

let verify t =
  match t.signature, pub_of_principal t.authorizer with
  | Some sig_text, Some pub ->
    let try_alg alg_name hash =
      let plen = String.length alg_name in
      if String.length sig_text > plen && String.sub sig_text 0 plen = alg_name then begin
        match
          Dcrypto.Hexcodec.decode (String.sub sig_text plen (String.length sig_text - plen))
        with
        | raw ->
          (match Dcrypto.Dsa.sig_decode raw with
          | signature -> Dcrypto.Dsa.verify ~hash ~key:pub (t.body_text ^ alg_name) signature
          | exception Invalid_argument _ -> false)
        | exception Invalid_argument _ -> false
      end
      else false
    in
    try_alg sig_alg Dcrypto.Sha1.digest || try_alg sig_alg_sha256 Dcrypto.Sha256.digest
  | _ -> false

let signed_by t pub =
  (match pub_of_principal t.authorizer with
  | Some k -> Dcrypto.Dsa.pub_equal k pub
  | None -> false)
  && verify t

let to_text t = t.full_text

let fingerprint t = t.fingerprint
