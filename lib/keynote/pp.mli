(** Pretty-printing of KeyNote syntax back to source form. The output
    of {!program_to_string} re-parses (with {!Parser.conditions}) to a
    program with identical evaluation semantics; likewise
    {!licensees_to_string} with {!Parser.licensees}. Used by the inspection tooling and the
    property tests. *)

val program_to_string : Ast.program -> string
val licensees_to_string : Ast.licensees -> string

val quote : string -> string
(** Quote and escape a string literal for the assertion language. *)
