(* One value whose optional parameters the fixture units pass in
   every way Pass E tells apart. *)

val make :
  ?used:int ->
  ?own:int ->
  (* discfs-lint: allow test-only "a knob with its reason stated" *)
  ?seam:int ->
  ?test_only:int ->
  ?unpassed:int ->
  unit ->
  int
(** [used] is passed by [Knob_user], [own] only by [Knobs] itself,
    [seam] and [test_only] only by [Test_user], [unpassed] by nobody:
    every call omits it. *)
