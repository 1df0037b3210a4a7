(* Host-side measurement: the monotonic wall clock, GC deltas, order
   statistics and named wall-time spans around calls into the system.
   Nothing here feeds back into the simulation, so the virtual-time
   results do not depend on it. *)

let now_ns () = Monotonic_clock.now ()

(* Taken when the executable's modules initialise: setup_s runs from
   here to the first timed operation. *)
let process_start = now_ns ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* --- order statistics ------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  match sorted l with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it. *)
let rank a p =
  let n = Array.length a in
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

(* The highest of p99/p95/p90 that still has at least ten samples
   beyond it: (percentile, value, samples beyond). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let k = rank a p in
      if n - k >= 10 then Some (p, a.(k - 1), n - k) else None)
    [ 0.99; 0.95; 0.90 ]

(* --- the garbage collector -------------------------------------------- *)

type gc_mark = { words : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    majors = s.Gc.major_collections }

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* --- named spans ------------------------------------------------------ *)

(* Wall-time samples per span name, recorded by the benchmark around
   its own calls into the layers. [None] records nothing, so the
   untraced run pays one match per call. *)
type spans = (string, float list) Hashtbl.t

let spans () : spans = Hashtbl.create 16

let span (s : spans option) name f =
  match s with
  | None -> f ()
  | Some tbl ->
    let r, dt = time f in
    Hashtbl.replace tbl name (dt :: Option.value (Hashtbl.find_opt tbl name) ~default:[]);
    r

(* Samples in recording order. *)
let samples (tbl : spans) name = List.rev (Option.value (Hashtbl.find_opt tbl name) ~default:[])
