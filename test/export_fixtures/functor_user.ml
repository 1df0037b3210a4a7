(* Reaches [Exported.Make]'s [via_functor] only by including an
   instance. *)

include Exported.Make (struct
  let base = 7
end)
