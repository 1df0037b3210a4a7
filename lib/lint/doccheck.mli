(** Pass C of [discfs-lint]: cross-reference checks over the repo's
    markdown documentation, so the docs cannot silently drift from the
    tree the way prose always does. Three rules plus the counter
    catalogue ({!check_counters}), all reported as
    [doc] findings:

    - {b dead links}: every relative "[text](target)" must resolve to
      an existing file (anchors stripped, "../" normalised against the
      referencing file's directory). External links
      ([http://]/[https://]/[mailto:]) are not checked.
    - {b bad anchors}: a "[text](FILE.md#anchor)" or same-file
      "[text](#anchor)" must name a real heading in the target,
      using GitHub's slug rules (lowercase, spaces to hyphens,
      punctuation dropped, [-1]/[-2] suffixes for repeats).
    - {b stale code references}: an inline code span that names a
      wrapped-library module path ([`Discfs.Cluster_client`],
      [`Oncrpc.Rpc`], ...) must correspond to an existing
      implementation file; the library-name-to-directory map
      ([discfs] is [lib/core], [oncrpc] is [lib/rpc], [dcrypto] is
      [lib/crypto], ...) is discovered from the [(name ...)] stanzas
      of [lib/*/dune], never hand-maintained. A code span that looks
      like a source path ([`lib/core/shard_map.ml`], [`docs/X.md`])
      must exist too.

    Fenced code blocks are skipped entirely; links are only read
    outside inline code spans, module/path references only inside
    them. *)

type finding = { file : string; line : int; message : string }

val render_finding : finding -> string
(** ["file:line: [doc] message"]. *)

val compare_finding : finding -> finding -> int
(** Order by file, line, message — the report order. *)

val lib_map : root:string -> (string * string) list
(** The discovered module-path prefix map, e.g.
    [("Discfs", "lib/core"); ("Oncrpc", "lib/rpc"); ...]. *)

val check_file :
  root:string -> libmap:(string * string) list -> string -> finding list
(** Check one repo-relative markdown file. A missing file yields a
    single [cannot read file] finding. *)

val default_files : root:string -> string list
(** The files the repo-wide check covers: every [*.md] at the root
    plus everything under [docs/]. *)

val check : root:string -> string list -> finding list
(** Check the given repo-relative files with a freshly discovered
    library map; findings sorted and de-duplicated. *)

val catalogue_file : string
(** ["docs/PROTOCOL.md"], home of the repo's counter catalogue. *)

val check_counters : root:string -> catalogue:string -> src:string -> finding list
(** Every counter name that an [.ml] under [src] passes as a string
    literal to [Stats.incr]/[add] or [Metrics.incr]/[add] must be in
    the first column of the table under the [catalogue] file's
    "Counter catalogue" heading, and every name there must be counted
    ([stale counter] otherwise; [counter listed twice] too). Brace
    groups expand ([cache.attr.{hits,misses}]); an entry with a
    [<placeholder>] ([span.<name>]) is a family covering its prefix. *)
