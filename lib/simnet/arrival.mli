(** Deterministic arrival processes for open-loop load generation.

    Closed-loop drivers (a fixed client set, each issuing its next op
    on completion of the last — the shape of every figure in the
    paper's §6) cannot locate saturation: offered load degenerates to
    completion rate.  An open-loop process fires arrivals on the
    virtual clock regardless of completions, so offered load is an
    independent variable and the latency knee becomes measurable.

    Streams are seeded (splitmix64) and pure functions of the seed:
    equal seeds give byte-identical inter-arrival sequences on any
    two schedulers, which is what makes SLO benchmarks reproducible. *)

(** Inter-arrival law.  [Fixed dt] is a metronome (debugging,
    worst-case phase alignment).  [Poisson] has exponential
    inter-arrivals with the given mean rate (ops per virtual second).
    [Pareto] is a bounded Pareto — heavy-tailed bursts, the
    production-traffic shape — with shape [alpha > 1] and support
    [xm, cap * xm] ([cap > 1]), scaled so the mean rate is [rate]. *)
type process =
  | Fixed of float
  | Poisson of { rate : float }
  | Pareto of { rate : float; alpha : float; cap : float }

(* discfs-lint: allow test-only "the anchor for the arrival-process property tests" *)
val mean : process -> float
(** Analytic mean inter-arrival in seconds (= [1 /. rate] for both
    random laws); the anchor for the generator property tests.
    Raises [Invalid_argument] on bad parameters. *)

(* discfs-lint: allow test-only "the anchor for the arrival-process property tests" *)
val variance : process -> float
(** Analytic inter-arrival variance ([0.] for [Fixed]). *)

type t

val create : seed:string -> process -> t
(** Raises [Invalid_argument] on bad parameters ([rate <= 0],
    [alpha <= 1], [cap <= 1]). *)

val next : t -> float
(** Draw the next inter-arrival gap (seconds) and advance the
    stream. *)

val times : t -> n:int -> float array
(** The next [n] cumulative arrival offsets (strictly increasing,
    relative to 0). *)
