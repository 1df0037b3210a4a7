(** Virtual time. Every simulated component (disk, wire, crypto CPU,
    policy engine) advances a shared clock, making benchmark results
    deterministic and independent of host speed. *)

type t

val create : unit -> t
(** A clock at time 0.0. *)

val now : t -> float
(** Seconds of simulated time elapsed. *)

val advance : t -> float -> unit
(** Add [dt] seconds. Raises [Invalid_argument] on negative [dt].
    When an advance hook is installed ({!set_advance_hook}) and
    [dt > 0], the hook is called instead of moving the clock — this
    is how {!Sched} turns an in-line cost charge into a cooperative
    sleep. Zero-cost advances bypass the hook. *)

val set : t -> float -> unit
(** Jump the clock forward to an absolute time. Moves only forward:
    a target in the past is ignored, so replayed or same-time events
    cannot rewind history. Bypasses the advance hook — this is the
    primitive the event loop itself uses. *)

val set_advance_hook : t -> (float -> unit) option -> unit
(** Install (or clear) the interception hook consulted by
    {!advance}. At most one scheduler owns a clock; installing a
    hook while another is active replaces it. *)

val reset : t -> unit
(** Rewind to 0.0 and open a new epoch. Benchmarks use this to
    discard an out-of-band setup phase; timestamps taken before the
    rewind belong to the previous epoch (see {!epoch}). *)

val epoch : t -> int
(** How many times this clock has been {!reset}. Absolute timestamps
    captured under one epoch are not comparable with [now] readings
    from another — holders of cached deadlines (e.g. the link's wire
    reservations) stamp them with the epoch and discard on mismatch. *)

val time : t -> (unit -> 'a) -> 'a * float
(** [time t f] runs [f] and returns its result with the simulated
    seconds it consumed. *)
