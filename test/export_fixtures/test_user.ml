(* Scanned as test code: the one reference to each of [Exported.seam],
   [Exported.test_only] and [Exported.empty_reason], and the one pass
   of [Knobs.make]'s [seam] (as [?l:v]) and [test_only]. *)

let probe () = Exported.seam (Exported.test_only (Exported.empty_reason 1))
let knobs () = Knobs.make ?seam:(Some 1) ~test_only:2 ()
