(* Percentile SLO extraction and knee location.

   The paper's evaluation reports means over closed loops; a
   deployment promises percentiles under offered load. This module
   turns a latency histogram into the p50/p99/p999 vocabulary every
   later scaling PR is judged against, and finds the knee of a
   latency-vs-offered-load sweep. *)

module Metrics = Trace.Metrics

type summary = {
  count : int;
  mean : float;
  p50 : Metrics.quantile_estimate;
  p99 : Metrics.quantile_estimate;
  p999 : Metrics.quantile_estimate;
  saturated : int;  (* observations past the last bucket edge *)
}

let of_histogram h =
  let count = Metrics.count h in
  {
    count;
    mean = (if count = 0 then 0.0 else Metrics.sum h /. float_of_int count);
    p50 = Metrics.quantile_est h 0.5;
    p99 = Metrics.quantile_est h 0.99;
    p999 = Metrics.quantile_est h 0.999;
    saturated = Metrics.overflow h;
  }

let quantile_json = function
  | Metrics.Q_empty -> "null"
  | Metrics.Q_at v -> Printf.sprintf "%.9g" v
  | Metrics.Q_ge edge -> Printf.sprintf "\">=%.9g\"" edge

let summary_json s =
  Printf.sprintf
    "{\"count\": %d, \"mean_s\": %.9g, \"p50_s\": %s, \"p99_s\": %s, \"p999_s\": %s, \
     \"saturated\": %d}"
    s.count s.mean (quantile_json s.p50) (quantile_json s.p99) (quantile_json s.p999)
    s.saturated

let render s =
  Printf.sprintf "n=%d mean=%s p50=%s p99=%s p999=%s%s" s.count
    (Printf.sprintf "%.9g" s.mean)
    (Metrics.quantile_to_string s.p50)
    (Metrics.quantile_to_string s.p99)
    (Metrics.quantile_to_string s.p999)
    (if s.saturated > 0 then Printf.sprintf " sat=%d" s.saturated else "")

(* The knee of an offered-load sweep: the highest offered rate the
   system still sustains, defined as achieved throughput within
   [tolerance] (10%) of offered with no failed ops. Past it,
   an open-loop generator outruns the completion rate — queues grow
   without bound and percentile latency is set by the horizon, not
   the service. Points must be in ascending offered-rate order; the
   knee is the last sustaining point of the initial sustained run, so
   one anomalous recovery past saturation cannot fake a higher knee. *)
let tolerance = 0.10

let knee points =
  let sustains (offered, achieved, failed) =
    failed = 0 && offered > 0.0 && achieved >= (1.0 -. tolerance) *. offered
  in
  let rec go i last = function
    | [] -> last
    | p :: rest -> if sustains p then go (i + 1) (Some i) rest else last
  in
  go 0 None points
