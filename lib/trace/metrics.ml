(* discfs-lint: atomic-section — counter/histogram updates complete
   inside one scheduler slice; no operation yields. *)

type histogram = {
  h_bounds : float array; (* strictly increasing upper bounds *)
  h_counts : int array; (* length = Array.length h_bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 32;
  }

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.hists

(* [find], not [find_opt]: incrementing must not allocate. *)
let add t name n =
  match Hashtbl.find t.counters name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.replace t.counters name (ref n)

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = sorted_bindings t.counters (fun r -> !r)

(* 1-2-5 per decade, 1us .. 100s: deterministic latency grid. *)
let default_buckets =
  Array.init 25 (fun i ->
      let mant = [| 1.; 2.; 5. |].(i mod 3) in
      mant *. (10. ** float_of_int ((i / 3) - 6)))

let validate_bounds b =
  if Array.length b = 0 then invalid_arg "Metrics.make_histogram: empty buckets";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Metrics.make_histogram: non-finite bucket bound")
    b;
  for i = 1 to Array.length b - 1 do
    if b.(i) <= b.(i - 1) then
      invalid_arg "Metrics.make_histogram: bucket bounds not strictly increasing"
  done

let make_histogram bounds =
  validate_bounds bounds;
  {
    h_bounds = Array.copy bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
  }

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = make_histogram default_buckets in
      Hashtbl.replace t.hists name h;
      h

let bucket_index bounds v =
  (* first bound >= v, else overflow slot *)
  let n = Array.length bounds in
  let rec go lo hi =
    (* invariant: bounds.(i) < v for i < lo; bounds.(i) >= v for i >= hi *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if bounds.(mid) >= v then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  let i = bucket_index h.h_bounds v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let bucket_counts h = Array.copy h.h_counts

let cumulative h =
  let c = Array.copy h.h_counts in
  for i = 1 to Array.length c - 1 do
    c.(i) <- c.(i) + c.(i - 1)
  done;
  c

let count h = h.h_count
let sum h = h.h_sum

let overflow h = h.h_counts.(Array.length h.h_bounds)

(* Interpolated quantiles with explicit saturation: p99 of a latency
   histogram must be a value, not its bucket's upper bound, and a p99
   that lands past the last edge must say "at least <edge>", not a
   clamped finite number or [infinity]. *)
type quantile_estimate =
  | Q_empty
  | Q_at of float
  | Q_ge of float

let quantile_est h q =
  if h.h_count = 0 then Q_empty
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    (* Continuous rank in [0, count]; observations are assumed spread
       uniformly within their bucket. *)
    let rank = q *. float_of_int h.h_count in
    let cum = cumulative h in
    let n = Array.length h.h_bounds in
    (* First bucket whose cumulative count reaches the rank; a rank of
       0 resolves to the first non-empty bucket's lower edge. *)
    let rec find i =
      if i > n then n
      else if cum.(i) > 0 && float_of_int cum.(i) >= rank then i
      else find (i + 1)
    in
    let i = find 0 in
    if i >= n then Q_ge h.h_bounds.(n - 1)
    else begin
      let lo = if i = 0 then 0. else h.h_bounds.(i - 1) in
      let hi = h.h_bounds.(i) in
      let before = if i = 0 then 0. else float_of_int cum.(i - 1) in
      let here = float_of_int h.h_counts.(i) in
      let frac = Float.min 1. (Float.max 0. ((rank -. before) /. here)) in
      Q_at (lo +. ((hi -. lo) *. frac))
    end
  end

let quantile_to_string = function
  | Q_empty -> "n/a"
  | Q_at v -> Printf.sprintf "%.9g" v
  | Q_ge edge -> Printf.sprintf ">=%.9g" edge

let histograms t = sorted_bindings t.hists (fun h -> h)
