(** Client-side NFS caching, as real NFS clients do: an attribute
    cache and a directory-name (lookup) cache with time-to-live
    expiry against the {e virtual} clock — an entry is fresh while
    [Clock.now < expiry], so simulated time, not wall time, ages it.
    Writes through this layer invalidate the file's cached
    attributes; removes and renames invalidate name entries.

    NFSv2 has no cache-coherence protocol, so staleness up to the TTL
    is inherent — the classic close-to-open trade-off. TTLs default
    to the common 3 s (attributes) / 30 s (names).

    {b Observability.} Cache traffic is counted in the registry given
    to [create], split by cache: ["cache.attr.hits"] /
    ["cache.attr.misses"] / ["cache.attr.expiries"] for {!getattr}
    traffic and
    ["cache.name.hits"] / ["cache.name.misses"] /
    ["cache.name.expiries"] for {!lookup} traffic.

    The cache sits in front of any client with the seven calls of
    {!CLIENT}: the DisCFS benchmark backend instantiates {!Make} over
    the cluster client, and the tests over the plain {!Client}. *)

module type CLIENT = sig
  type t

  val getattr : t -> Proto.fh -> Proto.fattr
  val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
  val readdirplus : t -> Proto.fh -> Proto.direntplus list
  val read_whole : t -> Proto.fh -> size:int -> string
  val read : t -> Proto.fh -> off:int -> count:int -> Proto.fattr * string
  val write : t -> Proto.fh -> off:int -> string -> Proto.fattr
  val remove : t -> Proto.fh -> string -> unit
end
(** The calls the cache makes on a miss or a pass-through. *)

module Make (C : CLIENT) : sig
  type t

  val create :
    client:C.t -> clock:Simnet.Clock.t -> stats:Simnet.Stats.t -> ?attr_ttl:float ->
    ?name_ttl:float -> unit -> t
  (** TTLs are in virtual seconds; [attr_ttl] ages {!getattr} entries,
      [name_ttl] ages {!lookup} entries. The ["cache.attr.*"] /
      ["cache.name.*"] counters go to [stats]. *)

  val set_race : t -> Race.monitor -> unit
  (** Attach a race monitor (default {!Race.null}): misses open
      check-then-act windows spanning the RPC round trip, closed when
      the reply is installed; invalidations are writes. *)

  (* discfs-lint: allow test-only "the TTL tests age the attribute cache directly; the benchmark backend reaches it through read_whole" *)
  val getattr : t -> Proto.fh -> Proto.fattr
  (** Served from cache while fresh; otherwise one GETATTR round trip
      refills the entry. *)

  val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
  (** Served from the name cache while fresh; a miss pays one LOOKUP
      round trip and also refreshes the target's attribute entry. *)

  val readdirplus : t -> Proto.fh -> Proto.direntplus list
  (** One compound exchange per directory page; every entry prefetches
      the name and attribute caches exactly as a {!lookup} miss would
      install them. *)

  val read_whole : t -> Proto.fh -> string
  (** Whole-file read sized by the attribute cache (one GETATTR only on
      a cold entry), transferred as batched MULTI_READ calls. *)

  val read : t -> Proto.fh -> off:int -> count:int -> Proto.fattr * string
  (** Pass-through; refreshes the attribute cache from the reply. *)

  val write : t -> Proto.fh -> off:int -> string -> Proto.fattr
  (** Pass-through; updates the attribute cache from the reply. *)

  val remove : t -> Proto.fh -> string -> unit
  (** Pass-through; drops the name entry and the directory's
      attributes. *)
end
