(** Metrics registry: counters, gauges and fixed-bucket histograms.

    Zero dependencies; all state is explicit so deployments can own
    independent registries ([Simnet.Stats] is this type).  Histogram
    bucket boundaries are fixed at creation and deterministic, which
    makes aggregated output byte-reproducible across runs. *)

type t
(** A registry of named counters, gauges and histograms. *)

type histogram
(** Fixed-bucket histogram: [n] strictly-increasing upper bounds plus
    an overflow bucket, a running count and a running sum. *)

val create : unit -> t

val reset : t -> unit
(** Drop every metric in the registry. *)

(** {1 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
(** Neither allocates once the counter exists. *)

val counter : t -> string -> int
val counters : t -> (string * int) list
(** Sorted by name. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float option

(** {1 Histograms} *)

val default_buckets : float array
(** 1-2-5 series from 1 microsecond to 100 seconds (25 bounds),
    suitable for virtual-time latencies. *)

val make_histogram : float array -> histogram
(** A standalone (registry-less) histogram over the given upper
    bounds, for callers that own their accounting — the load
    generator's latency records.  Raises [Invalid_argument] unless
    the bounds are finite and strictly increasing. *)

val histogram : t -> ?buckets:float array -> string -> histogram
(** Get or create.  [buckets] must be non-empty, finite and strictly
    increasing or [Invalid_argument] is raised; it is ignored when the
    histogram already exists. *)

val observe : histogram -> float -> unit
(** Record a value into the first bucket whose bound is [>=] it (the
    overflow bucket if none is). *)

val bucket_counts : histogram -> int array
(** One cell per bucket bound plus the overflow cell, last. *)

val cumulative : histogram -> int array
val count : histogram -> int
val sum : histogram -> float

val merge : histogram -> histogram -> histogram
(** Fresh histogram combining both operands.  Raises
    [Invalid_argument] if the bucket bounds differ. *)

val overflow : histogram -> int
(** Observations that landed past the last bucket edge (the count in
    the explicit overflow bucket). *)

(** An extracted quantile.  [Q_at v] interpolates linearly within the
    bucket the quantile falls in (observations are assumed uniform
    inside a bucket; the first bucket's lower edge is [0.]).  [Q_ge
    edge] means the quantile fell in the overflow bucket, so only the
    lower bound — the last finite edge — is known: report it as
    ["≥ edge"], never as a clamped finite value.  [Q_empty] is an
    empty histogram. *)
type quantile_estimate =
  | Q_empty
  | Q_at of float
  | Q_ge of float

val quantile_est : histogram -> float -> quantile_estimate
(** Interpolated quantile with saturation semantics; [q] is clamped
    to [0,1].  [q = 0.] resolves to the lower edge of the first
    non-empty bucket, [q = 1.] to the upper edge of the last (or
    [Q_ge] when any observation overflowed past it). *)

val quantile_to_string : quantile_estimate -> string
(** ["n/a"], a [%.9g] value, or [">=edge"] — deterministic, suitable
    for byte-reproducible reports. *)

val histograms : t -> (string * histogram) list
(** Sorted by name. *)
