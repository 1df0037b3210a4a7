(** Discrete-event scheduler with cooperative processes.

    A binary-heap event queue keyed [(time, tie, seq)] — virtual time
    first, then the tie key (0 unless a tie seed is installed), then
    allocation order — drives processes built on OCaml effect
    handlers. While a process runs, any
    [Clock.advance] performed by the layers beneath it (disk, wire,
    crypto, policy) is intercepted by the clock's advance hook and
    turned into a cooperative sleep, so concurrent processes overlap
    in virtual time exactly where a real server would overlap on
    independent resources.

    Determinism: the event order is a pure function of the schedule
    calls — no wall clock, no unordered container iteration — so the
    same program replays the same interleaving every run.

    Cost: every cost charge in a process is an event, so the event
    path is kept nearly allocation-free. The heap holds its keys in
    flat arrays; a sleep, its wake-up and the loop's bookkeeping
    allocate about 7.5 words per event on OCaml 5.1 (the parked
    continuation, one small heap entry and the boxed time the clock
    keeps). Every
    time and duration argument is checked: NaN raises
    [Invalid_argument], because a NaN key would break the heap's
    order; [infinity] is a legal time. *)

type t

val create : clock:Clock.t -> t
(** A scheduler over [clock]. Does not install the clock hook;
    call {!attach_clock} when processes should absorb cost charges
    as sleeps. *)

val attach_clock : t -> unit
(** Install this scheduler as [clock]'s advance hook: inside a
    process, [Clock.advance] suspends the process for [dt]; outside
    one, it advances in-line as before. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Run a thunk at an absolute virtual time (>= now and not NaN, else
    [Invalid_argument]). The thunk is not a process: it must not
    suspend unless it wraps itself via {!spawn}. Allocates the
    2-word heap entry and nothing else. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t dt f] = [schedule_at t (now + dt) f]; a negative
    or NaN [dt] raises [Invalid_argument]. Allocates the heap entry
    and the boxed sum. *)

val spawn : t -> (unit -> unit) -> unit
(** Enqueue a cooperative process starting at the current virtual
    time. Within it, {!sleep}, {!Mailbox.take} (and, with {!attach_clock},
    any [Clock.advance] underneath it) yield to other events. An
    exception escaping the process aborts {!run}. *)

val spawn_at : t -> float -> (unit -> unit) -> unit
(** {!spawn} at an absolute virtual time (>= now, else
    [Invalid_argument]). The workhorse of timed workload injection —
    open-loop arrival events, churn joins/leaves, a scripted mid-run
    crash — anything that both starts later and spends virtual time
    (a bare {!schedule_at} thunk must not suspend; a spawned process
    may). Allocates the heap entry and the start closure; the
    process's effect handler, with its one preallocated sleep
    handler, is built when it starts. *)

val clock : t -> Clock.t
(** The clock this scheduler drives. *)

val run : t -> unit
(** Execute events in [(time, tie, seq)] order until the heap is
    empty, moving the clock to each event's timestamp. Not
    re-entrant. An exception escaping an event or a process aborts
    [run] with that exception; {!in_process} is false and
    {!current_pid} is back to its value outside the event, so [run]
    may be called again to go on with the events still queued. The
    loop restores that state with exception handlers, not closures:
    running an event allocates only what the event itself does. *)

val sleep : t -> float -> unit
(** Suspend the calling process for [dt] virtual seconds. Must be
    called from within a process, and [t] must be the scheduler that
    runs it: [dt] travels to the process's handler through a cell
    that [t] owns. A negative or NaN [dt] raises [Invalid_argument].
    Performs one constant effect; the wake-up is a 3-word heap entry
    holding the pid and the continuation, and nothing else. *)

val in_process : t -> bool
(** True while the scheduler is executing an event — the signal used
    by layers that behave differently in-line vs. in-process (e.g.
    [Rpc.call] picks the queued path only in-process). *)

val current_pid : t -> int
(** The pid of the spawned process whose slice is executing, or [0]
    outside any process (setup code, bare scheduled thunks). Pids are
    allocated at spawn, 1-based, and survive suspension — the race
    checker uses them to attribute accesses to processes. *)

val set_tie_seed : t -> int64 option -> unit
(** Install (or clear) a schedule-perturbation seed. While set, every
    event scheduled gets a splitmix64 tie key hashed from
    [(seed, seq)], and same-timestamp events run in tie-key order
    instead of allocation order. Deterministic per seed; [None]
    (the default) preserves the classic [(time, seq)] order exactly.
    Affects only events scheduled while the seed is installed. *)

(* discfs-lint: allow test-only "the tie-order tests check the installed seed" *)
val tie_seed : t -> int64 option
(** The currently installed perturbation seed, if any. *)

val events_run : t -> int
(** Total events executed — a cheap determinism fingerprint. *)

(* discfs-lint: allow test-only "the scheduler model test journals the event order" *)
val set_probe : t -> (float -> int -> unit) option -> unit
(** Observation hook called with [(time, seq)] as each event runs;
    used by the replay-determinism tests to journal the order. *)

(** One-consumer FIFO channel between processes: the reply path from
    server transmit process to the waiting client call. *)
module Mailbox : sig
  type sched := t
  type 'a t

  val create : unit -> 'a t

  val push : sched -> 'a t -> 'a -> unit
  (** Deliver a value: queue it, or wake the waiting consumer (as its
      own event, so same-time wakeups stay FIFO; that event cancels
      the consumer's timeout when it runs). Waking allocates the
      woken state and one heap entry. *)

  val take : sched -> 'a t -> timeout:float -> 'a option
  (** Dequeue, or suspend the calling process until a value arrives
      ([Some v]) or [timeout] virtual seconds pass ([None]). At most
      one process may wait at a time: a second waiter raises
      [Invalid_argument], as does a NaN [timeout]. As with {!sleep},
      [sched] must be the scheduler that runs the process. A wait
      parks the continuation and a timeout entry that both name the
      mailbox — no closures are chained — so a round trip with its
      wake-up costs about 42 words on OCaml 5.1. *)
end
