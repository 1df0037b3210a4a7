(* Races-pass seed: an empty justification string. The marker is
   there but says nothing, so the capture is reported as unjustified,
   as an empty string is for every per-site allow. *)

module Clock = Simnet.Clock
module Sched = Simnet.Sched

let run () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let total = ref 0 in
  (* discfs-lint: allow races "" *)
  Sched.spawn s (fun () -> incr total);
  Sched.run s;
  !total
