(** A duplex point-to-point link with latency and bandwidth, shared
    by the RPC and IPsec layers. Transmitting advances the virtual
    clock and counts traffic. A {!Fault.t} can be attached to make
    the link lossy: {!send} then models drop, duplication,
    reordering and corruption. *)

type t

val create : clock:Clock.t -> cost:Cost.t -> stats:Stats.t -> t
val clock : t -> Clock.t
val cost : t -> Cost.t
val stats : t -> Stats.t

val trace : t -> Trace.t
(** The tracer this link reports to ({!Trace.null} until
    {!set_trace}). Layers above the link (RPC, ESP, IKE) pick their
    tracer up from here so one deployment shares one span tree. *)

val set_trace : t -> Trace.t -> unit
(** Adopt a tracer; also propagated to an attached fault injector. *)

val set_fault : t -> Fault.t option -> unit
(** Attach (or remove) a fault injector. Without one, {!send}
    delivers exactly what was sent. The injector inherits this
    link's tracer and records [fault.*] instant spans for each
    injected fault. *)

val transmit : t -> ?flow:int -> int -> unit
(** [transmit t ~flow nbytes] charges one one-way message of
    [nbytes]: queueing delay (if the flow's wire is still clocking
    out an earlier transmission — only possible under a {!Sched}
    where senders overlap), then serialization at the link bandwidth,
    then latency. Transmissions on the same flow serialize behind
    each other (busy-until model); a wait is counted under
    ["link.queued"]. In serial mode the wait is always zero and the
    charge is exactly latency + serialization, as before. *)

(* discfs-lint: allow test-only "the link tests check per-flow wire serialization" *)
val busy_until : t -> int -> float
(** The absolute virtual time at which [flow]'s wire finishes its
    current transmission (0.0 if it has never sent). Reservations
    are stamped with the clock's {!Clock.epoch}; one left over from
    before a [Clock.reset] (benchmarks rewind between setup and the
    timed phase) reads as idle, so a rewind can never charge phantom
    queueing delay carried over from the previous epoch. *)

val quiesce : t -> int
(** Drop any packets still parked in reorder hold slots — a crash or
    shutdown of an endpoint loses them for real — counting each under
    ["link.drops"] / ["link.quiesce_drops"], and mark every flow's
    wire idle. Returns how many packets were flushed. Called by
    [Discfs.Cluster.crash_and_restart]. *)

val send : t -> ?flow:int -> string -> string list
(** [send t ~flow payload] charges wire time for the attempt and
    returns the copies that actually arrive, in order: [[]] if
    dropped or held for reordering, two copies if duplicated, a
    bit-flipped copy if corrupted. Each arrival is a distinct buffer
    that belongs to its receiver, which may open it in place: a
    duplicate's second copy is a fresh string, and the sender must
    not touch [payload] once it is sent. [flow] separates directions
    (or higher-level flows) so a packet held for reordering is released
    behind the next packet on the same flow only. Fault events are
    counted under ["link.drops"], ["link.dups"], ["link.reorders"],
    ["link.corruptions"]. *)
