(** Open-loop workload driver over {!Simnet.Sched}.

    Arrivals are scheduled up front from a seeded
    {!Simnet.Arrival.t}; each op's latency is measured from its
    scheduled arrival instant to completion, so queueing for a free
    connection is part of the number — the quantity an SLO promises.
    Offered load is therefore decoupled from completion rate: past
    saturation the histogram's tail grows instead of the offered rate
    silently shrinking, which is what makes the knee visible. *)

type t = {
  latencies : Trace.Metrics.histogram;
      (** One observation per completed op (arrival → completion). *)
  mutable offered : int;
  mutable completed : int;
  mutable failed : int;
  mutable first_arrival : float;
  mutable last_completion : float;
}

val create : ops:int -> t
(** Bare accounting record for [ops] offered arrivals, for scenarios
    that dispatch jobs themselves (dynamic membership) but want the
    same conservation law.  Callers must invoke {!complete} exactly
    once per offered op. *)

val complete :
  t -> Simnet.Clock.t -> started:float -> bool -> unit
(** Record one op's outcome at the clock's current instant:
    [started] is its scheduled arrival time; [true] observes
    [now - started] into the histogram, [false] counts a failure. *)

val offer :
  sched:Simnet.Sched.t ->
  arrivals:Simnet.Arrival.t ->
  ops:int ->
  ?channels:int ->
  op:(int -> bool) ->
  unit ->
  t
(** Schedule [ops] arrivals starting at the scheduler's current time
    and return the (mutable) accounting record; results are final
    once [Simnet.Sched.run] drains the heap.  Arrival [i] is routed
    round-robin to one of [channels] serial dispatch channels
    (default 1) — a fixed connection pool: ops on one channel never
    overlap, ops across channels do.  [op i] performs the work
    (issuing RPCs, spending virtual time) and returns whether it
    succeeded; it must catch its own exceptions (e.g. RPC timeouts)
    — an escaping exception aborts the whole scheduler run.
    Invariant on completion: [offered = completed + failed] and the
    histogram count equals [completed]. *)

val makespan : t -> float
(** Virtual seconds from the first arrival to the last completion
    ([0.] before the run or when nothing was offered). *)

val throughput : t -> float
(** Completed ops per virtual second of {!makespan}. *)
