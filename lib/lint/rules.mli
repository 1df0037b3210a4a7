(** Pass A of [discfs-lint]: invariant rules over the typed ASTs
    ([.cmt] files) that [dune build] already produces.

    Each rule is named and individually suppressible per file with a
    comment anywhere in the source:

    {v (* discfs-lint: allow <rule> [<rule> ...] *) v}

    The rule set encodes repo-wide invariants that reviews cannot be
    trusted to hold as the tree grows:

    - [determinism]: no [Random], [Sys.time], [Unix], [Hashtbl.hash]
      or [Marshal] in library code — the discrete-event simulation
      must depend only on seeds and virtual time.
    - [strict-determinism]: additionally, no unordered hash-table
      iteration ([Hashtbl.iter]/[fold]/[to_seq] and kin) — bucket order
      depends on insertion history, so any event ordering derived
      from it would not replay. Applied only to scheduler-critical
      modules: [lib/simnet/sched.ml] is pinned by path, and any file
      can opt in with {v (* discfs-lint: require strict-determinism *) v}
    - [poly-compare]: no polymorphic [=]/[<>]/[compare]/[min]/[max]
      instantiated at bignum, crypto or KeyNote key types; structural
      comparison on crypto values is a correctness and
      timing-discipline hazard — use the modules' dedicated
      comparisons ([Nat.equal], [Dsa.pub_equal], [Secret.equal],
      [Ast.principal_equal], fingerprints).
    - [no-print]: no [Printf.printf]/[print_*]/stderr output in
      library code; observability goes through [Trace].
    - [decode-result]: no bare [failwith]/[assert false] in the
      wire-decode layers ([lib/xdr], [lib/rpc], [lib/ipsec]) — wire
      input is attacker-controlled, so decoders signal errors with
      [result] or the layer's dedicated exception.
    - [secret-flow]: values of a secret-tagged type
      ([Dsa.private_key], [Dh.secret], [Secret.t]) must not appear as
      arguments at [Trace.*], [Format.*] or printer ([pp]/[show])
      call sites.
    - [mli-coverage]: every [lib/] module has an interface file.
    - [hotpath-alloc]: no fresh [Enc.create] in the wire-decode
      layers — hot-path messages are built in the channel's arena
      ([encode_*_into] / [Esp.arena]). Suppressed per *site* only,
      with a mandatory quoted justification on the line or the line
      above: [(* discfs-lint: allow hotpath-alloc "why" *)]. A
      file-level [allow] does not apply, and a marker without a
      justification keeps the finding.
    - [c-boundary]: an [external] (a C stub) in library code lives in
      [lib/crypto] and is [[@@noalloc]]. A stub is handed raw pointers
      into OCaml strings and bytes, valid only while no GC can run;
      [lib/crypto]'s OCaml side checks every size and range before
      the call.
    - [monitor-off]: a switched-off race monitor or tracer costs
      nothing, so nothing is built for it on every call. An argument
      to [Race.read]/[check]/[act]/[write]/[note] that is a function
      application (a [sprintf]'d key, [^], [string_of_int], a
      [to_string]) must sit in the then-branch of an
      [if Race.enabled …]; an [~attrs] to [Trace.span]/[Trace.instant]
      that is neither a literal constant nor a value passed by name
      must sit in the then-branch of an [if Trace.enabled …]. *)

type rule =
  | Determinism
  | Strict_determinism
  | Poly_compare
  | No_print
  | Decode_result
  | Secret_flow
  | Mli_coverage
  | Hotpath_alloc
  | C_boundary
  | Monitor_off

val all_rules : rule list

val rule_name : rule -> string
(** The kebab-case name used in reports and suppression comments. *)

val rule_of_name : string -> rule option

type role =
  | Lib  (** general library code: every rule except [decode-result] *)
  | Decode
      (** wire-decode libraries: [Lib] plus [decode-result] and
          [hotpath-alloc] (every fresh [Enc.create] needs a per-site
          justification) *)
  | Data
      (** the NFS data path ([lib/nfs/server.ml], [lib/core]): [Lib]
          plus [hotpath-alloc], which here flags the payload copies
          [Fs.read] and [Dec.opaque] — file data is borrowed and
          WRITE payloads are stored from where they lie — unless the
          site carries a justification *)
  | Kernel
      (** [lib/crypto], the one home of C stubs: [Lib], with
          [c-boundary] demanding [[@@noalloc]] instead of flagging every
          [external] *)
  | Exe
      (** executables, benches and tests: only [poly-compare] and
          [secret-flow] (printing and wall-clock use are legitimate
          there) *)

val role_of_path : string -> role
(** Role from a repo-relative source path: [lib/xdr], [lib/rpc] and
    [lib/ipsec] are [Decode]; [lib/nfs/server.ml] and [lib/core] are
    [Data]; [lib/crypto] is [Kernel]; everything else under [lib/] is
    [Lib]; [bin/], [bench/] and [test/] are [Exe]. *)

val rules_for_role : role -> rule list

type finding = {
  rule : rule;
  file : string;  (** repo-relative source path *)
  line : int;
  col : int;
  message : string;
}

val render_finding : finding -> string
(** ["file:line:col: [rule] message"]. *)

val compare_finding : finding -> finding -> int
(** Order by file, line, column, rule — the report order. *)

val check_cmt : ?role:role -> source_root:string -> string -> (finding list, string) result
(** [check_cmt ~source_root path] loads the [.cmt] at [path] and runs
    every typed-tree rule applicable to its role (inferred from the
    recorded source path unless [role] is given). [source_root] is
    where repo-relative source paths resolve, for reading suppression
    comments. Returns [Error] if the file is unreadable or holds no
    implementation tree. *)

val check_mli_coverage : source_root:string -> string -> finding list
(** [check_mli_coverage ~source_root dir] walks [dir] (repo-relative)
    for [.ml] files with no matching [.mli]. Suppressible like any
    other rule. *)

val scan_cmts : string -> string list
(** Recursively collect the [.cmt] files under a directory, skipping
    generated library alias modules; sorted. *)

val suppressed_rules : string -> rule list
(** The rules allowed by [discfs-lint: allow] comments in the given
    source file (empty if the file cannot be read). *)

val required_rules : string -> rule list
(** The rules demanded by [discfs-lint: require] comments in the given
    source file — applied on top of the role's rule set (empty if the
    file cannot be read). *)

(** {1 Shared helpers}

    Used by the other typed-AST passes (the races pass in
    {!Races}). *)

val normalize_name : string -> string
(** Collapse dune wrapping and [Stdlib] prefixes in a dotted path
    name: ["Simnet__Sched.Mailbox.t"], ["Simnet.Sched.Mailbox.t"] and
    ["Sched.Mailbox.t"] all normalize to the latter. *)

val suffix_matches : string -> string -> bool
(** [suffix_matches name suff]: [name] is [suff] or ends with
    ["." ^ suff] (module-chain suffix match on normalized names). *)

val read_file : string -> string option
(** The file's bytes, or [None] if it cannot be opened. *)
