(** Pass E of [discfs-lint]: exports and knobs that nothing uses.

    Lists every [val] of a library interface that no other compilation
    unit references. It reads the interfaces' typed signatures
    ([.cmti]) and the implementations' typed trees ([.cmt]). A
    reference is matched to its declaration through the location that
    the type checker records with every value: a use through a module
    alias ([module CC = Discfs.Cluster_client], or an [open]), through
    an [include], or through a functor instance carries the location
    of the [val] in the interface that declared it. An [include] of a
    module counts as a reference to each value it brings in.

    Each declared value gets one status:

    - [Used]: referenced by a unit outside the tests;
    - [Test_only why]: referenced only by test units, and a test seam
      by intent: its [val] line, or the line above, carries
      [(* discfs-lint: allow test-only "why" *)] — listed in the JSON
      inventory, not a finding;
    - [Unjustified]: referenced only by test units with no such
      marker, or one whose quoted reason is empty — a finding. Give
      the seam its reason, or delete it and move its tests onto the
      path the system runs;
    - [Unreferenced]: referenced by no other unit — a finding. Delete
      the export, and the body too unless the module uses it itself.

    Values in module types are not exports and are not listed.

    A knob is an optional parameter [?l] of a listed value. An
    application passes it when it names [l] explicitly, as [~l:v] or
    [?l:v]; an omitted optional argument, which the type checker
    fills with a [None] at a ghost location, does not. The declaring
    unit's own applications count too: they name the implementation,
    so they are matched by unit and value name. Each knob gets one
    status:

    - [Used]: passed by a unit outside the tests;
    - [Test_only why]: passed only by test units, and the parameter's
      line, or the line above, carries
      [(* discfs-lint: allow test-only "why" *)]; a knob of a
      justified test-only value shares that value's reason;
    - [Unjustified]: passed only by test units with no reason — a
      finding. Give the knob its reason, or make it a constant and
      move the tests to its default;
    - [Unreferenced] ("unpassed"): passed by no application — a
      finding. Make it a constant, its default. *)

type status = Used | Test_only of string | Unjustified | Unreferenced

type export = {
  x_file : string;  (** repo-relative interface path *)
  x_line : int;
  x_col : int;
  x_name : string;  (** e.g. ["Simnet.Sched.spawn"] *)
  x_knob : string option;  (** the label of a knob; [None] for the value itself *)
  x_status : status;
}

type t
(** Declarations and references gathered so far, in any order. *)

val create : unit -> t

val declare : t -> Source.unit_ -> unit
(** Note the values an interface unit ([.cmti]) declares; any other
    unit is ignored. *)

val reference : t -> test:bool -> Source.unit_ -> unit
(** Note the values an implementation unit ([.cmt]) references;
    [test] says it is test code. Any other unit is ignored. *)

val exports : t -> source_root:string -> export list
(** Every declared value and every knob with its status, ordered by
    file, line and column (a knob sits at its parameter's type). The
    [test-only] markers are read from the interface sources under
    [source_root]. *)

val is_finding : export -> bool
(** [Unjustified] and [Unreferenced] exports and knobs. *)

val render : export -> string
(** The finding for an [Unjustified] or [Unreferenced] export or knob:
    ["file:line:col: [exports] ..."], one line; a knob is named
    ["M.v ?l"]. *)

val json_of_exports : export list -> string
(** [{"pass":"exports","exports":n,"entries":[...],"test_only":n,
    "unjustified":n,"unreferenced":n}]: the count of declared values,
    then every entry that is not [Used] with its file, line, column,
    name and status ([test-only] entries with their justification),
    then the justified test seams, the unjustified ones and the
    unreferenced exports counted apart. Knobs are left out. *)

val json_of_knobs : export list -> string
(** [{"pass":"knobs","knobs":n,"entries":[...],"test_only":n,
    "unjustified":n,"unpassed":n}]: the same inventory over the
    knobs, each entry named ["M.v ?l"]. *)
