(** Evaluation of condition-language expressions and tests.

    Values are dynamically typed. Action attributes are strings; an
    operator that needs a number coerces and raises [Eval_error] when
    the string is not numeric. Comparisons are numeric when both
    sides coerce, lexicographic otherwise — this matches how KeyNote
    policies in the paper mix string permissions (["RWX"]) with
    numeric fields (time of day). A failed evaluation makes the
    enclosing clause unsatisfied rather than aborting the whole
    query. *)

exception Eval_error of string

type value = V_str of string | V_num of float

type env = string -> string option
(** Lookup of action attributes (after Local-Constants merging).
    Undefined attributes read as the empty string per RFC 2704. *)

val equality_key : value -> string
(** A string two values share exactly when the evaluator's [==]
    finds them equal (numerically when both coerce to numbers,
    as strings otherwise): the exact float for a value that coerces to a number
    (so ["017"], ["17"] and [Num 17.] share one), the string itself
    otherwise. *)

val eval_program :
  env -> value_index:(string -> int option) -> max_index:int -> Ast.program -> int
(** Compliance value of a Conditions program: the maximum (in the
    query's value order) over all satisfied clauses. [value_index]
    maps a value string to its position in the query's ordered set;
    clauses yielding values outside the set, or raising during
    evaluation, are treated as unsatisfied. *)
