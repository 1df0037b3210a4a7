(* Pretty-printer roundtrip: printing any AST and re-parsing it must
   preserve evaluation semantics on arbitrary attribute environments. *)

module Ast = Keynote.Ast
module Parser = Keynote.Parser
module Expr = Keynote.Expr

(* Prints KeyNote syntax back to source form: the output of
   [program_to_string] re-parses (with [Parser.conditions]) to a
   program with identical evaluation semantics; likewise
   [licensees_to_string] with [Parser.licensees]. *)
module Pp = struct
  (* Conservative printer: every sub-expression is parenthesized, so no
     precedence reasoning is needed for the reparse guarantee. *)

  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let rec expr fmt (e : Ast.expr) =
    match e with
    | Ast.Str s -> Format.pp_print_string fmt (quote s)
    | Ast.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 && f >= 0.0 then Format.fprintf fmt "%.0f" f
      else if f < 0.0 then Format.fprintf fmt "(0 - %g)" (-.f)
      else Format.fprintf fmt "%g" f
    | Ast.Attr name -> Format.pp_print_string fmt name
    | Ast.Deref e -> Format.fprintf fmt "$(%a)" expr e
    | Ast.Neg e -> Format.fprintf fmt "(-%a)" expr e
    | Ast.Add (a, b) -> binop fmt "+" a b
    | Ast.Sub (a, b) -> binop fmt "-" a b
    | Ast.Mul (a, b) -> binop fmt "*" a b
    | Ast.Div (a, b) -> binop fmt "/" a b
    | Ast.Mod (a, b) -> binop fmt "%" a b
    | Ast.Pow (a, b) -> binop fmt "^" a b
    | Ast.Concat (a, b) -> binop fmt "." a b

  and binop fmt op a b = Format.fprintf fmt "(%a %s %a)" expr a op expr b

  let rec test fmt (t : Ast.test) =
    match t with
    | Ast.True -> Format.pp_print_string fmt "true"
    | Ast.False -> Format.pp_print_string fmt "false"
    | Ast.Not t -> Format.fprintf fmt "!(%a)" test t
    | Ast.AndT (a, b) -> Format.fprintf fmt "(%a && %a)" test a test b
    | Ast.OrT (a, b) -> Format.fprintf fmt "(%a || %a)" test a test b
    | Ast.Eq (a, b) -> rel fmt "==" a b
    | Ast.Neq (a, b) -> rel fmt "!=" a b
    | Ast.Lt (a, b) -> rel fmt "<" a b
    | Ast.Gt (a, b) -> rel fmt ">" a b
    | Ast.Le (a, b) -> rel fmt "<=" a b
    | Ast.Ge (a, b) -> rel fmt ">=" a b
    | Ast.Regex (e, pattern) -> Format.fprintf fmt "(%a ~= %s)" expr e (quote pattern)

  and rel fmt op a b = Format.fprintf fmt "(%a %s %a)" expr a op expr b

  let rec clause fmt (c : Ast.clause) =
    match c.Ast.result with
    | Ast.Max_trust -> Format.fprintf fmt "%a" test c.Ast.guard
    | Ast.Value v -> Format.fprintf fmt "%a -> %s" test c.Ast.guard (quote v)
    | Ast.Subprogram sub -> Format.fprintf fmt "%a -> { %a }" test c.Ast.guard program sub

  and program fmt (p : Ast.program) =
    List.iter (fun c -> Format.fprintf fmt "%a; " clause c) p

  let rec licensees fmt (l : Ast.licensees) =
    match l with
    | Ast.Principal p -> Format.pp_print_string fmt (quote p)
    | Ast.And (a, b) -> Format.fprintf fmt "(%a && %a)" licensees a licensees b
    | Ast.Or (a, b) -> Format.fprintf fmt "(%a || %a)" licensees a licensees b
    | Ast.Threshold (k, members) ->
      Format.fprintf fmt "%d-of(%a)" k
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") licensees)
        members

  let program_to_string p = Format.asprintf "%a" program p
  let licensees_to_string l = Format.asprintf "%a" licensees l
end

(* --- generators ----------------------------------------------------- *)

let gen_ident = QCheck.Gen.oneofl [ "app_domain"; "HANDLE"; "hour"; "filetype"; "x"; "y_2" ]

let gen_literal_string =
  QCheck.Gen.oneofl [ "DisCFS"; "RWX"; "R"; "666240"; "hello world"; ""; "a\"b"; "back\\slash" ]

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun s -> Ast.Str s) gen_literal_string;
              map (fun i -> Ast.Num (float_of_int i)) (int_bound 1000);
              map (fun v -> Ast.Attr v) gen_ident;
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              map (fun s -> Ast.Str s) gen_literal_string;
              map (fun i -> Ast.Num (float_of_int i)) (int_bound 1000);
              map (fun v -> Ast.Attr v) gen_ident;
              map2 (fun a b -> Ast.Add (a, b)) sub sub;
              map2 (fun a b -> Ast.Sub (a, b)) sub sub;
              map2 (fun a b -> Ast.Mul (a, b)) sub sub;
              map2 (fun a b -> Ast.Concat (a, b)) sub sub;
              map (fun e -> Ast.Neg e) sub;
              map (fun e -> Ast.Deref e) sub;
            ]))

let gen_test =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Ast.True;
              return Ast.False;
              map2 (fun a b -> Ast.Eq (a, b)) (gen_expr |> map Fun.id) (gen_expr |> map Fun.id);
              map2 (fun a b -> Ast.Lt (a, b)) gen_expr gen_expr;
              map2 (fun a b -> Ast.Ge (a, b)) gen_expr gen_expr;
              map2 (fun e p -> Ast.Regex (e, p)) gen_expr (oneofl [ "^Dis"; "[0-9]+"; "x$" ]);
            ]
        in
        if n <= 0 then leaf
        else
          let sub = self (n / 2) in
          oneof
            [
              leaf;
              map (fun t -> Ast.Not t) sub;
              map2 (fun a b -> Ast.AndT (a, b)) sub sub;
              map2 (fun a b -> Ast.OrT (a, b)) sub sub;
            ]))

let gen_program =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (map2
         (fun guard v ->
           { Ast.guard; result = (match v with Some s -> Ast.Value s | None -> Ast.Max_trust) })
         gen_test
         (option (oneofl [ "false"; "X"; "R"; "RW"; "RWX" ]))))

let gen_licensees =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf = map (fun k -> Ast.Principal ("dsa-hex:" ^ k)) (oneofl [ "aa"; "bb"; "cc"; "dd" ]) in
        if n <= 0 then leaf
        else
          let sub = self (n / 2) in
          oneof
            [
              leaf;
              map2 (fun a b -> Ast.And (a, b)) sub sub;
              map2 (fun a b -> Ast.Or (a, b)) sub sub;
              map2
                (fun k l -> Ast.Threshold (max 1 (min k (List.length l)), l))
                (int_range 1 3)
                (list_size (int_range 1 3) sub);
            ]))

(* --- semantic comparison --------------------------------------------- *)

let env name =
  match name with
  | "app_domain" -> Some "DisCFS"
  | "HANDLE" -> Some "666240"
  | "hour" -> Some "14"
  | "filetype" -> Some "leisure"
  | "x" -> Some "42"
  | _ -> None

let values = [ "false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX" ]

let value_index v =
  let rec idx i = function [] -> None | x :: r -> if x = v then Some i else idx (i + 1) r in
  idx 0 values

let eval_program p = Expr.eval_program env ~value_index ~max_index:7 p

let prop_program_roundtrip =
  QCheck.Test.make ~name:"pp program reparses with same semantics" ~count:300
    (QCheck.make gen_program) (fun prog ->
      let printed = Pp.program_to_string prog in
      match Parser.conditions printed with
      | reparsed -> eval_program reparsed = eval_program prog
      | exception Parser.Parse_error msg ->
        QCheck.Test.fail_reportf "did not reparse: %s@.source: %s" msg printed)

let rec licensees_equal a b =
  match a, b with
  | Ast.Principal p, Ast.Principal q -> Ast.principal_equal p q
  | Ast.And (a1, a2), Ast.And (b1, b2) | Ast.Or (a1, a2), Ast.Or (b1, b2) ->
    licensees_equal a1 b1 && licensees_equal a2 b2
  | Ast.Threshold (k1, l1), Ast.Threshold (k2, l2) ->
    k1 = k2 && List.length l1 = List.length l2 && List.for_all2 licensees_equal l1 l2
  | _ -> false

let prop_licensees_roundtrip =
  QCheck.Test.make ~name:"pp licensees reparses structurally" ~count:300
    (QCheck.make gen_licensees) (fun l ->
      let printed = Pp.licensees_to_string l in
      match Parser.licensees printed with
      | reparsed -> licensees_equal l reparsed
      | exception Parser.Parse_error msg ->
        QCheck.Test.fail_reportf "did not reparse: %s@.source: %s" msg printed)

let test_quote () =
  Alcotest.(check string) "plain" "\"abc\"" (Pp.quote "abc");
  Alcotest.(check string) "embedded quote" "\"a\\\"b\"" (Pp.quote "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (Pp.quote "a\\b")

let test_printed_examples () =
  let prog = Parser.conditions "(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";" in
  let printed = Pp.program_to_string prog in
  Alcotest.(check int) "figure-5 conditions evaluate identically" (eval_program prog)
    (eval_program (Parser.conditions printed))

let suite =
  [
    Alcotest.test_case "quoting" `Quick test_quote;
    Alcotest.test_case "figure-5 roundtrip" `Quick test_printed_examples;
    QCheck_alcotest.to_alcotest prop_program_roundtrip;
    QCheck_alcotest.to_alcotest prop_licensees_roundtrip;
  ]
