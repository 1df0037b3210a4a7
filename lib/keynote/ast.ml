(* Abstract syntax for KeyNote assertions (RFC 2704).

   Principals are represented by their canonical string form: either
   an opaque name (e.g. "POLICY") or an algorithm-tagged key such as
   "dsa-hex:3081de...". Key principals compare case-insensitively on
   the hex part. *)

type principal = string

(* Licensees field: a monotone boolean structure over principals. *)
type licensees =
  | Principal of principal
  | And of licensees * licensees
  | Or of licensees * licensees
  | Threshold of int * licensees list

(* Condition-language expressions. Values are dynamically typed
   strings/numbers; see Expr for evaluation rules. *)
type expr =
  | Str of string
  | Num of float
  | Attr of string (* action-attribute or local-constant reference *)
  | Deref of expr (* $expr: attribute named by the value of expr *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Pow of expr * expr
  | Concat of expr * expr (* "." string concatenation *)

type test =
  | True
  | False
  | Not of test
  | AndT of test * test
  | OrT of test * test
  | Eq of expr * expr
  | Neq of expr * expr
  | Lt of expr * expr
  | Gt of expr * expr
  | Le of expr * expr
  | Ge of expr * expr
  | Regex of expr * string (* value ~= pattern *)

(* A Conditions program: ordered clauses. A clause with no explicit
   value means "-> _MAX_TRUST"; a clause may nest a sub-program. *)
type clause = { guard : test; result : result }

and result =
  | Value of string
  | Max_trust
  | Subprogram of clause list

type program = clause list

let is_key_principal p =
  match String.index_opt p ':' with
  | Some i -> i > 0 (* "alg:data" *)
  | None -> false

(* Keys are almost always rendered lowercase already; return those
   unchanged rather than copying ~800 bytes per comparison. *)
let normalize_principal p =
  if is_key_principal p && String.exists (fun c -> c >= 'A' && c <= 'Z') p then
    String.lowercase_ascii p
  else p

let principal_equal a b = String.equal (normalize_principal a) (normalize_principal b)

let rec pp_licensees fmt = function
  | Principal p -> Format.fprintf fmt "\"%s\"" p
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp_licensees a pp_licensees b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_licensees a pp_licensees b
  | Threshold (k, l) ->
    Format.fprintf fmt "%d-of(%a)" k
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_licensees)
      l

let rec licensees_principals = function
  | Principal p -> [ p ]
  | And (a, b) | Or (a, b) -> licensees_principals a @ licensees_principals b
  | Threshold (_, l) -> List.concat_map licensees_principals l
