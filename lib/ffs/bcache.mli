(** An LRU cache of disk blocks, the in-memory half of the buffer
    cache {!Blockdev} exposes.

    Pure bookkeeping: no clock, no I/O — {!Blockdev} decides what a
    hit or miss costs in virtual time and when entries are filled,
    updated (write-through) or dropped (crash, image restore). The
    recency policy is the shared {!Lru}, so every operation is O(1);
    this module adds the hit/miss/eviction counters, the generation
    guard and the race instrumentation.

    {b Ownership.} {!insert} stores the block it is given, without a
    copy: the caller hands the block over and must not write to it
    again. The cache never writes a stored block in place either (an
    update stores the new block instead), so a stored block is
    immutable for as long as anyone holds it, and {!Blockdev} shares
    one block between its store and the cache. {!find} returns a
    private copy; {!find_shared} returns the stored block itself,
    read-only.

    {b Lifetime.} A block handed out by {!find_shared} may outlive its
    entry: the NFS server borrows shared blocks into READ replies, and
    the RPC duplicate-request cache keeps those replies. An update or
    eviction here drops only the cache's reference, so a stored reply
    can keep a replaced block alive — bounded by the DRC's capacity,
    not by this cache's. *)

type t

val create : capacity:int -> t
(** [capacity = 0] disables the cache entirely: {!find} always
    misses, {!insert} is a no-op. Raises [Invalid_argument] on a
    negative capacity. *)

val find : t -> int -> bytes option
(** [find t i] is a copy of cached block [i], refreshing its recency;
    counts a hit or a miss. *)

val find_shared : t -> int -> bytes option
(** {!find} without the copy: the cached block itself, with the same
    recency and hit/miss accounting. The cache never modifies a stored
    block in place (an update stores another block), so the result
    keeps its contents; the caller must not write to it. *)

val mem : t -> int -> bool
(** Presence test that does not touch recency or the hit/miss
    counters (used to decide which blocks a readahead still needs). *)

val insert : t -> int -> bytes -> unit
(** Fill or update block [i] with the given block itself (no copy; the
    caller gives up writing to it), making it most recently used;
    evicts the least-recently-used block when full. *)

val insert_if : t -> generation:int -> int -> bytes -> unit
(** {!insert}, but only when the cache is still the incarnation the
    caller sampled with {!generation} — otherwise the fill is dropped
    and counted in {!stale_fills}. Guards fills whose miss/probe
    decision yielded across a {!drop} (crash-and-restart): a cold
    boot must stay cold even with I/O in flight. *)

val remove : t -> int -> unit
(** Forget block [i] if present (no eviction counted: removal is a
    coherence action, not capacity pressure). *)

val drop : t -> unit
(** Forget everything — the cache dies with the process on a crash;
    counters survive, contents do not. *)

val capacity : t -> int
val size : t -> int
val misses : t -> int
val evictions : t -> int

val generation : t -> int
(** Bumped by every {!drop}; sample before a yielding fill path and
    pass to {!insert_if}. *)

val stale_fills : t -> int
(** Fills refused by {!insert_if} because the cache was dropped while
    their I/O was in flight. *)

val set_race : t -> Race.monitor -> unit
(** Attach a race monitor ({!Race.null} detaches): hits report reads,
    misses and presence probes open check windows, inserts act with
    the block bytes as the conflict value, removals write, {!drop}
    wipes. *)
