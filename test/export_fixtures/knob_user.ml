(* A non-test unit: passes [used] and omits every other knob, which
   the type checker fills with a [None] at a ghost location. *)

let used = Knobs.make ~used:1 ()
