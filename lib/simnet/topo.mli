(** An N-host star topology: one access {!Link} per host into a
    non-blocking switch, all on one shared clock, cost model and
    stats namespace.

    The switch never queues — its store-and-forward hop is folded
    into each access link's one-way latency — so contention lives on
    the host wires, which is where it lives on a real edge network.
    A server's access link is the aggregate-bandwidth bottleneck for
    everything addressed to that server; giving each server in a
    cluster its own host is what makes aggregate throughput scale
    with the server count (see [docs/TOPOLOGY.md]).

    Determinism: hosts are numbered in creation order, every link
    shares the topology's clock, and nothing here consults wall
    time or ambient randomness, so a cluster built on a topology
    replays byte-identically under the same {!Sched} schedule. *)

type host = int
(** Host ids are dense, assigned in {!add_host} order. *)

type t

val default_switch_latency : float
(** 10 us: one 2001-era store-and-forward fabric hop. *)

val create :
  clock:Clock.t -> cost:Cost.t -> stats:Stats.t -> ?switch_latency:float -> unit -> t
(** An empty topology. [switch_latency] is added to [cost.net_latency]
    on every access link created by {!add_host}. *)

val add_host : t -> host
(** Provision a host with a fresh access link (inheriting the
    topology's tracer and fault injector). Counted under
    ["topo.hosts"]. *)

val link : t -> host -> Link.t
(** The host's access link. Raises [Invalid_argument] for an unknown
    host. *)

val set_trace : t -> Trace.t -> unit
(** Adopt a tracer on every existing and future access link. *)

val set_fault : t -> Fault.t option -> unit
(** Attach (or remove) one fault injector on every access link. *)
