(** A bounded map that evicts the least recently used binding.

    One recency policy for every cache in the tree: the FFS buffer
    cache ([Ffs.Bcache]), the KeyNote policy memo
    ([Discfs.Policy_cache]) and the RPC duplicate-request cache
    ([Oncrpc.Rpc]) are all built on it, each adding only its own
    counters, race instrumentation and rules.

    A hash table maps each key to a node of a circular doubly-linked
    recency list, so every operation is O(1). Keys are compared and
    hashed structurally ([Hashtbl]'s polymorphic hash). Pure
    bookkeeping: no clock, no counters, no I/O. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** An empty map holding at most [capacity] bindings. Raises
    [Invalid_argument] on a negative capacity. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** The value bound to the key, which becomes the most recently used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test; does not touch recency. *)

val replace : ('k, 'v) t -> 'k -> 'v -> int
(** Bind the key to the value (replacing any earlier binding) and make
    it the most recently used, then evict the least recently used
    binding if more than {!capacity} remain. Returns the number
    evicted, 0 or 1; at capacity 0 the victim is the new binding
    itself. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop the key's binding, if any. Not an eviction. *)

val set_capacity : ('k, 'v) t -> int -> int
(** Change the bound, evicting least recently used bindings until it
    holds; returns the number evicted. Raises [Invalid_argument] on a
    negative capacity. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding. *)

val bindings : ('k, 'v) t -> ('k * 'v) list
(** Every binding, least recently used first: the order in which
    capacity pressure would evict them. Does not touch recency. *)
