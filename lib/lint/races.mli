(** Pass D of [discfs-lint]: shared-state escape analysis at spawn
    points, the static half of the race detector.

    Walks the typed ASTs ([.cmt] files) for closures handed to the
    scheduler — [Sched.spawn]/[spawn_at] — directly or through one
    level of call indirection (a named local function passed as the
    process body), and inventories every captured value whose type is shared mutable
    state: [ref]s, [Hashtbl]/[Queue]/[Buffer]/[Stack] values, records
    with mutable fields, and a curated list of the tree's shared
    abstract types (caches, the RPC server, stats and metrics
    registries, ...).

    Capture is a violation unless mediated:

    - [Sched.Mailbox.t] values (or containers of them) are the
      blessed cross-process channel;
    - types owned by a module annotated
      [(* discfs-lint: atomic-section *)] are covered by that
      module's no-yield mutation discipline (enforced dynamically by
      [lib/race] where the module is instrumented);
    - a spawn site may carry
      [(* discfs-lint: allow races "justification" *)] on its line or
      the line above — the justification string is mandatory; an
      [allow races] with no string, or an empty one, is itself
      reported.

    Scheduler infrastructure ([Sched.t], [Clock.t], handles, the
    immutable cost table) is skipped silently. *)

type status =
  | Violation
  | Mailbox_mediated
  | Atomic_section of string  (** the annotated owning source file *)
  | Suppressed of string  (** the per-site justification *)
  | Missing_justification

type entry = {
  e_file : string;  (** repo-relative source of the spawn site *)
  e_line : int;
  e_col : int;
  e_spawn : string;  (** the spawn entry point, normalized *)
  e_value : string;  (** the captured identifier *)
  e_kind : string;  (** why the value counts as shared mutable state *)
  e_status : status;
}

val is_violation : entry -> bool
(** [Violation] and [Missing_justification] entries — what the text
    report prints and what drives the exit code. *)

val compare_entry : entry -> entry -> int
(** Order by file, line, column, value — the report order. *)

val render_entry : entry -> string
(** ["file:line:col: [races] ..."], one line. *)

val check_unit : source_root:string -> Source.unit_ -> (entry list, string) result
(** The full inventory for one compiled unit — clean entries included.
    [source_root] is where repo-relative source paths resolve, for the
    suppression comments and the atomic-section annotations. A
    generated alias module yields none; a unit that holds no
    implementation tree is an [Error]. *)

val scan : source_root:string -> string list -> entry list * string list
(** [scan ~source_root cmts]: inventory across many [.cmt] files,
    plus the per-file errors. *)

val json_of_entries : entry list -> string
(** The machine-readable inventory:
    [{"pass":"races","entries":[...],"violations":n}]. Each entry
    carries file/line/col, the spawn point, the captured value, its
    kind and status, plus the justification (suppressed entries) or
    owning file (atomic-section entries). *)
