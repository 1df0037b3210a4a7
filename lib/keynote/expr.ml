(* Evaluation of condition-language expressions and tests.

   Values are dynamically typed. Action attributes are strings; an
   operator that needs a number coerces and raises [Eval_error] when
   the string is not numeric. Comparisons are numeric when both sides
   coerce, lexicographic otherwise — this matches how KeyNote policies
   in the paper mix string permissions ("RWX") with numeric fields
   (time of day). A failed evaluation makes the enclosing clause
   unsatisfied rather than aborting the whole query. *)

exception Eval_error of string

type value = V_str of string | V_num of float

type env = string -> string option
(** Lookup of action attributes (after Local-Constants merging).
    Undefined attributes read as the empty string per RFC 2704. *)

let lookup env name = match env name with Some v -> v | None -> ""

let to_num = function
  | V_num f -> f
  | V_str s ->
    (match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> raise (Eval_error (Printf.sprintf "not a number: %S" s)))

let to_str = function
  | V_str s -> s
  | V_num f -> if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f

(* [float_of_string] drops underscores and, like strtod, skips leading
   white space; what is left of a number then starts with a digit, a
   sign, a decimal point, or the i or n of inf or nan. Any other string
   cannot coerce and is turned away before the conversion, whose
   failure allocates. *)
let rec may_be_number s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | ' ' | '\t' | '\n' | '\r' | '\011' | '\012' | '_' -> may_be_number s (i + 1)
  | '0' .. '9' | '+' | '-' | '.' | ',' | 'i' | 'I' | 'n' | 'N' -> true
  | _ -> false

let num_opt = function
  | V_num f -> Some f
  | V_str s -> if may_be_number s 0 then float_of_string_opt (String.trim s) else None

let rec eval env (e : Ast.expr) : value =
  match e with
  | Ast.Str s -> V_str s
  | Ast.Num f -> V_num f
  | Ast.Attr name -> V_str (lookup env name)
  | Ast.Deref e -> V_str (lookup env (to_str (eval env e)))
  | Ast.Neg e -> V_num (-.to_num (eval env e))
  | Ast.Add (a, b) -> arith env ( +. ) a b
  | Ast.Sub (a, b) -> arith env ( -. ) a b
  | Ast.Mul (a, b) -> arith env ( *. ) a b
  | Ast.Div (a, b) ->
    let d = to_num (eval env b) in
    if d = 0.0 then raise (Eval_error "division by zero");
    V_num (to_num (eval env a) /. d)
  | Ast.Mod (a, b) ->
    let d = to_num (eval env b) in
    if d = 0.0 then raise (Eval_error "modulo by zero");
    V_num (Float.rem (to_num (eval env a)) d)
  | Ast.Pow (a, b) -> arith env ( ** ) a b
  | Ast.Concat (a, b) -> V_str (to_str (eval env a) ^ to_str (eval env b))

and arith env op a b = V_num (op (to_num (eval env a)) (to_num (eval env b)))

let compare_values a b =
  match num_opt a, num_opt b with
  | Some x, Some y -> Float.compare x y
  | _ -> String.compare (to_str a) (to_str b)

(* Float.compare finds x and y equal exactly when they are the same
   IEEE value, -0 and +0 alike, or both NaN. An integral float below
   2^53 prints as its integer (-0 as 0), any other float exactly in
   "%h", which never looks like an integer. A value that does not
   coerce is equal only to the same string, which does not coerce
   either. *)
let equality_key v =
  match num_opt v with
  | Some f when Float.is_integer f && Float.abs f < 0x1p53 -> "#" ^ string_of_int (int_of_float f)
  | Some f when Float.is_nan f -> "#nan"
  | Some f -> Printf.sprintf "#%h" f
  | None -> "$" ^ to_str v

let rec eval_test env (t : Ast.test) : bool =
  match t with
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Not t -> not (eval_test env t)
  | Ast.AndT (a, b) -> eval_test env a && eval_test env b
  | Ast.OrT (a, b) -> eval_test env a || eval_test env b
  | Ast.Eq (a, b) -> compare_values (eval env a) (eval env b) = 0
  | Ast.Neq (a, b) -> compare_values (eval env a) (eval env b) <> 0
  | Ast.Lt (a, b) -> compare_values (eval env a) (eval env b) < 0
  | Ast.Gt (a, b) -> compare_values (eval env a) (eval env b) > 0
  | Ast.Le (a, b) -> compare_values (eval env a) (eval env b) <= 0
  | Ast.Ge (a, b) -> compare_values (eval env a) (eval env b) >= 0
  | Ast.Regex (e, pattern) ->
    let s = to_str (eval env e) in
    (match Rex.compile pattern with
    | re -> Rex.search re s
    | exception Rex.Syntax_error msg -> raise (Eval_error ("bad regex: " ^ msg)))

(* Program evaluation: the compliance value of a program is the
   maximum (in the query's value order) over all satisfied clauses;
   clauses that raise during evaluation are treated as unsatisfied. *)
let rec eval_program env ~value_index ~max_index (prog : Ast.program) : int =
  program_max env ~value_index ~max_index 0 prog

(* [acc] raised to the value of each satisfied clause, in order. *)
and program_max env ~value_index ~max_index acc = function
  | [] -> acc
  | (clause : Ast.clause) :: rest ->
    let acc =
      match eval_test env clause.Ast.guard with
      | exception Eval_error _ -> acc
      | false -> acc
      | true ->
        (match clause.Ast.result with
        | Ast.Max_trust -> Int.max acc max_index
        | Ast.Value v ->
          (match value_index v with
          | Some i -> Int.max acc i
          | None -> acc (* value outside the query's ordered set *))
        | Ast.Subprogram sub -> Int.max acc (eval_program env ~value_index ~max_index sub))
    in
    program_max env ~value_index ~max_index acc rest
