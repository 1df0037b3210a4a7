(* Races-pass seed: a shared ref escaping into two scheduled
   processes with no mediation — the canonical violation, twice. *)

module Clock = Simnet.Clock
module Sched = Simnet.Sched

let run () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let counter = ref 0 in
  Sched.spawn s (fun () ->
      Sched.sleep s 1.0;
      counter := !counter + 1);
  Sched.spawn_at s 0.5 (fun () -> counter := !counter + 1);
  Sched.run s;
  !counter
