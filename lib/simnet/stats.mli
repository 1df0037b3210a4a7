(** Named counters collected by every simulated component, surfaced in
    benchmark reports ("NFS calls", "cache hits", "bytes on wire"):
    the deployment's one {!Trace.Metrics} registry, counted whether or
    not tracing is on. *)

type t = Trace.Metrics.t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
