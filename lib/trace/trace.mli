(** Virtual-time tracing keyed to an injected clock.

    A tracer records a tree of spans (begin/end pairs with parent
    linkage) against whatever notion of "now" the caller supplies —
    in this codebase, the simulation's virtual clock — so traces are
    byte-reproducible whenever the clock and workload are
    deterministic.

    Completed spans land in a bounded ring buffer (oldest evicted
    first) and are also delivered to an optional sink; when the
    tracer carries a {!Metrics} registry, each completed span
    increments [span.<name>] and observes its self-time into the
    histogram [span.self.<name>].

    The disabled tracer {!null} makes every operation a no-op, so
    instrumented code pays (almost) nothing when tracing is off. *)

module Metrics = Metrics

type span = {
  id : int;  (** unique within a tracer, assigned at begin, 1-based *)
  parent : int;  (** id of enclosing span, or [-1] for a root *)
  name : string;
  attrs : (string * string) list;
  t_begin : float;
  t_end : float;
  self : float;
      (** duration minus the summed durations of direct children *)
}

type t

val null : t
(** The disabled tracer: every operation is a no-op. *)

val create : ?capacity:int -> ?metrics:Metrics.t -> now:(unit -> float) -> unit -> t
(** [capacity] bounds the ring buffer (default 65536, min 1). *)

val enabled : t -> bool

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is closed even if the thunk
    raises. *)

val instant : t -> ?attrs:(string * string) list -> string -> unit
(** Zero-duration span marking a point event. *)

val begin_span : t -> ?attrs:(string * string) list -> string -> int
(** Explicit begin; returns the span id ([0] on a disabled tracer). *)

val end_span : t -> int -> unit
(** Close the span [id], which must be the innermost open span —
    crossing or double-ending raises [Invalid_argument].  No-op on a
    disabled tracer. *)

val depth : t -> int
(** Number of currently-open spans. *)

val current : t -> string option
(** Name of the innermost open span, if any — the cheap "where am I"
    probe the race checker stamps on accesses when no explicit
    process label was noted. *)

val spans : t -> span list
(** Retained completed spans, in completion order (oldest first). *)

val dropped : t -> int
(** Completed spans evicted from the ring so far. *)

val reset : t -> unit
(** Clear retained spans, the drop counter and any open spans. *)

val set_sink : t -> (span -> unit) option -> unit
(** The sink sees every completed span, including ones the ring later
    evicts. *)

(** {1 Post-processing} *)

type tree = { node : span; children : tree list }

val forest : span list -> tree list
(** Rebuild the span forest from completed spans in completion order.
    Spans whose parent was evicted from the ring become roots. *)

val render_forest : ?collapse:bool -> tree list -> string
(** Names and nesting only (two-space indent), durations omitted so
    the output survives cost-model recalibration.  With [collapse]
    (default [true]), consecutive structurally-identical siblings
    render once with an [xN] count. *)

val span_to_jsonl : span -> string
(** One JSON object, no trailing newline. *)
