(** Virtual-time tracing keyed to an injected clock.

    A tracer records a tree of spans (begin/end pairs with parent
    linkage) against whatever notion of "now" the caller supplies —
    in this codebase, the simulation's virtual clock — so traces are
    byte-reproducible whenever the clock and workload are
    deterministic.

    Completed spans land in a bounded ring buffer (oldest evicted
    first); when the tracer carries a {!Metrics} registry, each completed span
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

val create : ?metrics:Metrics.t -> now:(unit -> float) -> unit -> t
(** A live tracer whose ring buffer retains the newest 65536 spans;
    older ones are dropped and counted ({!dropped}). *)

val enabled : t -> bool

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is closed even if the thunk
    raises. *)

val instant : t -> ?attrs:(string * string) list -> string -> unit
(** Zero-duration span marking a point event. *)

(* discfs-lint: allow test-only "the golden trace and the span tests check that every span closed" *)
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

val span_to_jsonl : span -> string
(** One JSON object, no trailing newline. *)
