(** Percentile SLO extraction and knee location.

    Wraps {!Trace.Metrics.quantile_est} into the p50/p99/p999
    vocabulary the scaling roadmap is judged against, with saturation
    kept explicit: a percentile past the histogram's last edge
    renders as [">= edge"], never a clamped finite value. *)

type summary = {
  count : int;
  mean : float;
  p50 : Trace.Metrics.quantile_estimate;
  p99 : Trace.Metrics.quantile_estimate;
  p999 : Trace.Metrics.quantile_estimate;
  saturated : int;
      (** Observations in the overflow bucket — when nonzero, the
          upper percentiles may be [Q_ge]. *)
}

val of_histogram : Trace.Metrics.histogram -> summary

val render : summary -> string
(** One deterministic line: [n=… mean=… p50=… p99=… p999=…]. *)

val summary_json : summary -> string
(** One deterministic JSON object; saturated percentiles appear as
    the string [">=edge"], an empty histogram's as [null]. *)

val knee : (float * float * int) list -> int option
(** [knee points] over ascending [(offered_rate, achieved_throughput,
    failed_ops)] sweep points: the index of the last point of the
    initial run whose achieved throughput stays within 10% of
    offered with zero failures — the highest load
    the system demonstrably sustains.  [None] when even the first
    point does not sustain. *)
