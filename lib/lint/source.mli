(** The source tree and the compiled units, as every typed-AST lint
    pass reads them.

    Passes A ({!Rules}), D ({!Races}) and E ({!Exports}) share one
    loader: sources are read once and cached, the [discfs-lint:]
    directive grammar has one parser, each [.cmt]/[.cmti] is read
    once and handed to whichever passes want it, and the dune library
    map, wrapped-name splitting and JSON escaping each live here
    alone.

    {2 Directive grammar}

    A directive is a comment naming a keyword and its words:

    {v (* discfs-lint: <keyword> <word> [<word> ...] *) v}

    The words end at the comment terminator or the end of the line,
    and are separated by spaces, tabs or commas. File-level keywords
    are [allow] (suppress rules for the file), [require] (opt the file
    into a rule its role would not apply) and [atomic-section] (the
    module's mutations never span a yield). A per-site
    [allow <rule> "why"] on the flagged line or the line above
    suppresses one finding; the first quoted string after the rule
    name is its justification, and an empty or missing one does not
    count. *)

(** {1 Source files} *)

val read_file : string -> string option
(** The file's bytes, or [None] if it cannot be opened. Cached per
    path for the life of the process. *)

val find_sub : string -> string -> int -> int option
(** [find_sub s sub from]: the first index [>= from] where [sub]
    occurs in [s]. *)

val directive_words : string -> keyword:string -> string list
(** The words of every directive with this keyword in the given
    source file, in file order (empty if the file cannot be read). *)

val has_directive : string -> keyword:string -> bool
(** Does the file carry a directive with this keyword? *)

type site =
  | Justified of string  (** the non-empty quoted justification *)
  | Unjustified  (** the marker with no, or an empty, quoted string *)

val site_allowance : string -> line:int -> rule:string -> site option
(** The per-site [allow <rule> "why"] on [line] of the file, or on
    the line above when [line] has none. *)

(** {1 Names} *)

val lib_dirs : root:string -> (string * string) list
(** Each library's [(name ...)] in [lib/<dir>/dune], mapped to
    ["lib/<dir>"]; sorted by directory. The first [(name ...)] of a
    dune file wins. *)

val split_wrap : string -> (string * string) option
(** A dune-wrapped unit name at its last ["__"]:
    ["Discfs__Policy_cache"] is [Some ("Discfs", "Policy_cache")];
    a name without an inner ["__"] is [None]. *)

val strip_wrap : string -> string
(** The unit part of a wrapped name, or the name itself. *)

(** {1 Compiled units} *)

type unit_ = {
  cmt : string;  (** the [.cmt]/[.cmti] path read *)
  src : string;  (** the recorded repo-relative source path *)
  modname : string;  (** the compiled unit name, e.g. ["Nfs__Cache"] *)
  annots : Cmt_format.binary_annots;
}

val load : string -> (unit_, string) result
(** Read one [.cmt] or [.cmti], and put its directory on the load
    path so a pass can rebuild the typing environments it records.
    [Error] if the file cannot be read. *)

val is_generated : unit_ -> bool
(** dune's library alias modules ([*.ml-gen]), which no pass lints. *)

val scan : ext:string -> string -> string list
(** Recursively collect the files with extension [ext] ([".cmt"] or
    [".cmti"]) under a directory; sorted. *)

(** {1 Output} *)

val json_escape : string -> string
(** A string's body as a JSON string literal, without the quotes. *)
