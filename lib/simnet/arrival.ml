(* Deterministic arrival processes for open-loop load generation.

   A closed-loop driver (N clients, each issuing the next op when the
   previous completes) can never push a server past saturation: the
   offered load collapses to the completion rate and the knee is
   invisible. An open-loop process decouples the two — arrivals fire
   on the virtual clock whether or not earlier ops have finished — so
   latency-vs-offered-load curves show where the system actually
   breaks. Everything is seeded splitmix64: same seed, same
   inter-arrival stream, byte for byte, on any scheduler. *)

type process =
  | Fixed of float
  | Poisson of { rate : float }
  | Pareto of { rate : float; alpha : float; cap : float }

let validate = function
  | Fixed dt ->
    if not (dt > 0.0) then invalid_arg "Arrival: Fixed interval must be positive"
  | Poisson { rate } ->
    if not (rate > 0.0) then invalid_arg "Arrival: Poisson rate must be positive"
  | Pareto { rate; alpha; cap } ->
    if not (rate > 0.0) then invalid_arg "Arrival: Pareto rate must be positive";
    if not (alpha > 1.0) then
      invalid_arg "Arrival: Pareto alpha must exceed 1 (finite mean)";
    if not (cap > 1.0) then invalid_arg "Arrival: Pareto cap must exceed 1"

(* Bounded Pareto on [xm, cap*xm] with shape [alpha], scaled so the
   mean inter-arrival is exactly 1/rate: xm = (1/rate) / mean_factor.
   mean_factor = E[X]/xm = alpha/(alpha-1) * (1 - c^(1-alpha)) / (1 - c^-alpha). *)
let pareto_mean_factor ~alpha ~cap =
  alpha /. (alpha -. 1.0)
  *. ((1.0 -. (cap ** (1.0 -. alpha))) /. (1.0 -. (cap ** -.alpha)))

(* E[X^2]/xm^2; the alpha = 2 integral degenerates to a logarithm. *)
let pareto_sq_factor ~alpha ~cap =
  if Float.abs (alpha -. 2.0) < 1e-9 then
    alpha *. log cap /. (1.0 -. (cap ** -.alpha))
  else
    alpha /. (alpha -. 2.0)
    *. ((1.0 -. (cap ** (2.0 -. alpha))) /. (1.0 -. (cap ** -.alpha)))

let mean p =
  validate p;
  match p with
  | Fixed dt -> dt
  | Poisson { rate } -> 1.0 /. rate
  | Pareto { rate; _ } -> 1.0 /. rate

let variance p =
  validate p;
  match p with
  | Fixed _ -> 0.0
  | Poisson { rate } -> 1.0 /. (rate *. rate)
  | Pareto { rate; alpha; cap } ->
    let m = 1.0 /. rate in
    let xm = m /. pareto_mean_factor ~alpha ~cap in
    (xm *. xm *. pareto_sq_factor ~alpha ~cap) -. (m *. m)

type t = { process : process; rng : Fault.Rng.t }

let create ~seed process =
  validate process;
  { process; rng = Fault.Rng.create ~seed }

let next t =
  match t.process with
  | Fixed dt -> dt
  | Poisson { rate } ->
    (* Inverse CDF of the exponential; 1 - u keeps the argument of
       log strictly positive (u is uniform in [0, 1)). *)
    let u = Fault.Rng.float t.rng in
    -.log (1.0 -. u) /. rate
  | Pareto { rate; alpha; cap } ->
    let xm = 1.0 /. rate /. pareto_mean_factor ~alpha ~cap in
    let u = Fault.Rng.float t.rng in
    (* Inverse CDF of the bounded Pareto on [xm, cap*xm]. *)
    xm *. ((1.0 -. (u *. (1.0 -. (cap ** -.alpha)))) ** (-1.0 /. alpha))

let times t ~n =
  let out = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. next t;
    out.(i) <- !acc
  done;
  out
