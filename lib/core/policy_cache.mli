(** LRU memoisation of KeyNote compliance results.

    The paper's prototype keeps "a cache of requested operations and
    policy results" (§5), 128 entries in the evaluation (§6); without
    it every NFS operation pays a full compliance check.

    {b Keying.} An entry is looked up by an opaque {!key}: the
    canonical encoding of the requesting principal (as the small id
    the server interned it to, see {!Server}), the complete
    action-attribute set the compliance checker would evaluate
    ([HANDLE], [GENERATION], [PATH], [hour], …) and the server's
    {e credential-set epoch} (a generation number bumped on every
    change to the loaded credentials or revoked keys, see {!Server}).
    Because everything the KeyNote query depends on is in the key, a
    memoised level can never be served for a different question:
    renaming a file changes [PATH], crossing an hour boundary changes
    [hour], and loading or revoking a credential changes the epoch —
    each naturally keys a fresh entry, and the superseded ones age
    out of the LRU. Recency is the shared {!Lru}: a hit or a re-add
    refreshes an entry, and a fill into a full table evicts the least
    recently used one.

    {b Invalidation.} Epoch rotation makes stale entries
    unreachable; {!flush} additionally drops them eagerly and is
    called by the server on every credential-set change (submission,
    issue, revocation, state reload) so entries keyed by a retired
    epoch do not linger in the table.

    {b Observability.} Evictions are counted in the registry given to
    {!create} under ["cache.policy.evictions"]. Hits and misses are
    observed by the caller ({!Server}), which counts and traces them
    where it acts on them. *)

type t

val create : stats:Simnet.Stats.t -> size:int -> t
(** [size = 0] disables caching (every lookup misses, {!add} is a
    no-op). Raises [Invalid_argument] on negative size. *)

val set_race : t -> Race.monitor -> unit
(** Attach a race monitor (default {!Race.null}): misses open
    check-then-act windows closed by {!add} — epoch-keyed duplicate
    fills classify benign — and {!flush} wipes per-key state. *)

val attributes : ino:int -> generation:int -> path:string -> hour:int -> (string * string) list
(** The action-attribute set a policy check asks KeyNote about:
    [app_domain = "DisCFS"], [HANDLE] (the inode), its [GENERATION]
    ([-1] for a dead inode), its [PATH] (empty when it has none) and
    the [hour]. Built only on a memo miss. *)

val key : epoch:int -> peer:int -> ino:int -> generation:int -> path:string -> hour:int -> string
(** The memo key: the canonical encoding
    [epoch\000peer\000k=v\000k=v…] of the credential-set epoch, the
    requesting principal's interned id and the {!attributes} for the
    other arguments, sorted by name and then value. The caller interns
    each principal to an id that never names another principal for
    this cache's lifetime, so the key stays exact. Used as is, not
    digested: the memo is an in-memory table, so an exact key cannot
    collide. Its length does not depend on the principal's.

    The key is measured and then written in place at its exact
    length, straight from the integers and the path. Both {!key} and
    {!attributes} walk one private table of the five attributes, kept
    in sorted order ([GENERATION], [HANDLE], [PATH], [app_domain],
    [hour]), so a lookup builds no attribute list and sorts
    nothing. *)

val find : t -> key:string -> int option
(** Cached compliance level for [key], refreshing its LRU position. *)

val add : t -> key:string -> int -> unit
(** Memoise a compliance level, evicting the least recently used
    entry when full. *)

val flush : t -> unit
(** Drop every entry (counters survive). Called when the credential
    set changes. *)

val hits : t -> int
val misses : t -> int

(* discfs-lint: allow test-only "tests check that a credential change flushes the memo" *)
val size : t -> int
val capacity : t -> int
