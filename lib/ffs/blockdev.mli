(** A simulated disk: an array of fixed-size blocks behind an
    optional buffer cache, with a seek / transfer timing model
    (Quantum Fireball class by default).

    {b Timing.} Sequential access pays only transfer time;
    discontiguous access pays an average seek on top; every physical
    operation pays a fixed controller overhead. Storage is allocated
    lazily so large, mostly-empty volumes are cheap.

    {b Buffer cache.} When created with [cache_blocks > 0] the device
    keeps a write-through LRU cache ({!Bcache}) of recently
    transferred blocks:

    - a {!read} that hits the cache is served from memory — it
      charges {e no} virtual time, records no ["disk.read"] span and
      does not move the simulated head;
    - a read that misses pays the full physical cost, then fills the
      cache; if the miss extends a sequential run, up to seven
      following blocks are prefetched on the same
      request, each paying transfer time only;
    - every {!write} goes {e through} to the platter at full cost and
      updates the cache afterwards, so the cache never holds data the
      disk might lose in a crash;
    - {!restore} (the crash/recovery path) and {!drop_cache} empty
      the cache: it models server memory and dies with the process.

    Cache traffic is counted under ["bcache.hits"] /
    ["bcache.misses"] / ["bcache.evictions"] (every block a fill
    displaced, prefetch fills included) / ["bcache.readahead_blocks"]
    (blocks prefetched) in {!Simnet.Stats}. *)

exception Io_error of string
(** A scripted disk fault fired: the read or write did not happen. *)

type t

val create :
  ?cache_blocks:int ->
  clock:Simnet.Clock.t ->
  cost:Simnet.Cost.t ->
  stats:Simnet.Stats.t ->
  nblocks:int ->
  block_size:int ->
  unit ->
  t
(** [cache_blocks] (default [0] — cache disabled, the seed repo's
    behaviour) sizes the buffer cache in blocks. Raises
    [Invalid_argument] on non-positive geometry. *)

val block_size : t -> int
val nblocks : t -> int
val clock : t -> Simnet.Clock.t
val stats : t -> Simnet.Stats.t

val trace : t -> Trace.t
(** The tracer reads/writes report to ({!Trace.null} until
    {!set_trace}); every timed I/O appears as a ["disk.read"] or
    ["disk.write"] span, and each sequential prefetch as a
    ["disk.readahead"] instant. *)

val set_trace : t -> Trace.t -> unit
(** Adopt a tracer; also propagated to an attached fault injector. *)

val set_fault : t -> Simnet.Fault.t option -> unit
(** Attach a fault injector whose scripted disk faults
    ({!Simnet.Fault.script_disk}) fire on this device's physical
    reads and writes: failed operations raise {!Io_error} (counted
    under ["disk.io_errors"]), corrupt reads flip a byte (counted
    under ["disk.corruptions"]). Buffer-cache hits perform no
    physical I/O and therefore cannot fault; a faulted transfer is
    never admitted to the cache, and prefetched blocks skip the
    fault script entirely (a prefetch is speculative — a block the
    script would have failed is simply re-read on demand). *)

val read : t -> int -> bytes
(** [read t i] returns a private copy of block [i] (zeros if never
    written), made once on the way out: the caller may write to it
    freely. Raises [Invalid_argument] if out of range.

    {b Block ownership.} The device never writes a stored block in
    place: {!write}, {!poke} and {!restore} store a private copy of
    the caller's bytes, replacing the old block. So the buffer cache
    holds the store's own block — a miss, a prefetch or a
    write-through fill copies nothing — and the bytes passed to those
    calls stay the caller's. A corrupted transfer is returned to its
    caller only; it never reaches the store or the cache.

    {b Borrowed blocks.} Because a stored block never changes, a
    reader may keep it past the next write: the NFS server's READ and
    MULTI_READ replies borrow shared blocks ({!read_shared}) into
    their reply arenas instead of copying them, and the RPC
    duplicate-request cache keeps those arenas. A stored reply can
    therefore keep a block alive after a write has replaced it (or
    the cache has evicted it) — at most one block per borrowed range
    of each reply the DRC holds, so bounded by the DRC's capacity. *)

val read_shared : t -> int -> bytes
(** {!read} without any copy, with identical hit, miss, charge and
    prefetch accounting: the result is the block the store and the
    cache share (after a corrupted transfer, the caller's own damaged
    copy). Read-only — the caller must neither write to it nor expect
    it to follow later writes. For read paths that copy the bytes
    straight to their destination. *)

val write : t -> int -> bytes -> unit
(** [write t i b] stores a full block; [b] must be exactly
    [block_size] long. Write-through: the platter is updated (and
    charged) first, the cache second. The device stores a private
    copy; [b] stays the caller's. *)

val write_sub : t -> int -> off:int -> string -> src_off:int -> len:int -> unit
(** [write_sub t i ~off src ~src_off ~len] stores
    [src.[src_off .. src_off+len)] at byte [off] of block [i], the
    rest of the block keeping its contents. The new block is built
    once, straight from [src], and stored: no further copy. A range
    covering the whole block is a {!write}; a partial range first
    reads the block, with {!read}'s accounting (cache hit or miss,
    disk charge, prefetch), then writes it. Raises [Invalid_argument]
    on a block or range out of bounds. *)

val bcache : t -> Bcache.t
(** The buffer cache itself, for statistics and tests. *)

val drop_cache : t -> unit
(** Empty the buffer cache (contents only; counters survive). Called
    on server crash: the cache is process memory, not stable
    storage. *)

val snapshot : t -> (int * bytes) list
(** All blocks ever written, sorted by index. Maintenance operation:
    charges no virtual time (offline dump, like dd-ing the disk). *)

val restore : t -> (int * bytes) list -> unit
(** Replace the device contents and drop the buffer cache.
    Maintenance operation; raises [Invalid_argument] on out-of-range
    blocks or wrong sizes. *)

val poke : t -> int -> bytes -> unit
(** Write one block without charging time or stats (used by the
    filesystem to flush its metadata cache before {!snapshot});
    invalidates the block's cache entry to keep the cache
    coherent. *)
