let make ?(used = 0) ?(own = 0) ?(seam = 0) ?(test_only = 0) ?(unpassed = 0) () =
  used + own + seam + test_only + unpassed

(* The declaring unit's own call names the implementation. *)
let _own = make ~own:1 ()
