(** An LRU cache of disk blocks, the in-memory half of the buffer
    cache {!Blockdev} exposes.

    Pure bookkeeping: no clock, no I/O — {!Blockdev} decides what a
    hit or miss costs in virtual time and when entries are filled,
    updated (write-through) or dropped (crash, image restore). The
    recency policy is the shared {!Lru}, so every operation is O(1);
    this module adds the generation guard and the race
    instrumentation; {!Blockdev} counts the hits, misses and
    evictions in its registry.

    {b Ownership.} {!insert_if} stores the block it is given, without
    a copy: the caller hands the block over and must not write to it
    again. The cache never writes a stored block in place either (an
    update stores the new block instead), so a stored block is
    immutable for as long as anyone holds it, and {!Blockdev} shares
    one block between its store and the cache. {!find_shared} returns
    the stored block itself, read-only.

    {b Lifetime.} A block handed out by {!find_shared} may outlive its
    entry: the NFS server borrows shared blocks into READ replies, and
    the RPC duplicate-request cache keeps those replies. An update or
    eviction here drops only the cache's reference, so a stored reply
    can keep a replaced block alive — bounded by the DRC's capacity,
    not by this cache's. *)

type t

val create : capacity:int -> t
(** [capacity = 0] disables the cache entirely: {!find_shared}
    always misses, {!insert_if} is a no-op. Raises
    [Invalid_argument] on a negative capacity. *)

val find_shared : t -> int -> bytes option
(** [find_shared t i] is cached block [i] itself, refreshing its
    recency. The cache never modifies a stored block in place (an
    update stores another block), so the result keeps its contents;
    the caller must not write to it. *)

val mem : t -> int -> bool
(** Presence test that does not touch recency (used to decide which
    blocks a readahead still needs). *)

val insert_if : t -> generation:int -> int -> bytes -> int
(** Fill or update block [i] with the given block itself (no copy; the
    caller gives up writing to it), making it most recently used and
    evicting the least-recently-used block when full; returns the
    number of blocks evicted (0 or 1). The fill happens only when the
    cache is still the incarnation the caller sampled with
    {!generation} — otherwise it is dropped (returning 0) and counted
    in {!stale_fills}. Guards fills whose miss/probe decision yielded
    across a {!drop} (crash-and-restart): a cold boot must stay cold
    even with I/O in flight. *)

val remove : t -> int -> unit
(** Forget block [i] if present (no eviction counted: removal is a
    coherence action, not capacity pressure). *)

val drop : t -> unit
(** Forget everything — the cache dies with the process on a crash;
    {!stale_fills} survives, contents do not. *)

val capacity : t -> int

val generation : t -> int
(** Bumped by every {!drop}; sample before a yielding fill path and
    pass to {!insert_if}. *)

(* discfs-lint: allow test-only "the crash-race test checks that a fill straddling a drop was refused" *)
val stale_fills : t -> int
(** Fills refused by {!insert_if} because the cache was dropped while
    their I/O was in flight. *)

val set_race : t -> Race.monitor -> unit
(** Attach a race monitor ({!Race.null} detaches): hits report reads,
    misses and presence probes open check windows, inserts act with
    the block bytes as the conflict value, removals write, {!drop}
    wipes. *)
