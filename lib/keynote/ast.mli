(** Abstract syntax for KeyNote assertions (RFC 2704).

    Principals are represented by their canonical string form: either
    an opaque name (e.g. ["POLICY"]) or an algorithm-tagged key such
    as ["dsa-hex:3081de..."]. Key principals compare
    case-insensitively on the hex part. *)

type principal = string

(** Licensees field: a monotone boolean structure over principals. *)
type licensees =
  | Principal of principal
  | And of licensees * licensees
  | Or of licensees * licensees
  | Threshold of int * licensees list

(** Condition-language expressions. Values are dynamically typed
    strings/numbers; see {!module:Expr} for evaluation rules. *)
type expr =
  | Str of string
  | Num of float
  | Attr of string  (** action-attribute or local-constant reference *)
  | Deref of expr  (** [$expr]: attribute named by the value of [expr] *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Mod of expr * expr
  | Pow of expr * expr
  | Concat of expr * expr  (** ["."] string concatenation *)

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
  | Regex of expr * string  (** [value ~= pattern] *)

(** A Conditions program: ordered clauses. A clause with no explicit
    value means "-> _MAX_TRUST"; a clause may nest a sub-program. *)
type clause = { guard : test; result : result }

and result = Value of string | Max_trust | Subprogram of clause list

type program = clause list

val normalize_principal : principal -> principal
(** Canonical form used for comparison: key principals lowercased,
    opaque names unchanged. *)

val principal_equal : principal -> principal -> bool

val pp_licensees : Format.formatter -> licensees -> unit

val licensees_principals : licensees -> principal list
(** All principals mentioned in a Licensees structure, in syntactic
    order, duplicates preserved. *)
