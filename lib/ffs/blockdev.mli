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
      cache; if the miss extends a sequential run, up to
      [readahead - 1] following blocks are prefetched on the same
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
  ?readahead:int ->
  clock:Simnet.Clock.t ->
  cost:Simnet.Cost.t ->
  stats:Simnet.Stats.t ->
  nblocks:int ->
  block_size:int ->
  unit ->
  t
(** [cache_blocks] (default [0] — cache disabled, the seed repo's
    behaviour) sizes the buffer cache in blocks. [readahead] (default
    [8]) bounds the sequential prefetch window, counting the demand
    block itself; [1] disables prefetching. Raises [Invalid_argument]
    on non-positive geometry or negative readahead. *)

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
    caller only; it never reaches the store or the cache. *)

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
    charged) first, the cache second. *)

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
