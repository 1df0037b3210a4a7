(* Scanned as test code: the one reference to each of [Exported.seam],
   [Exported.test_only] and [Exported.empty_reason]. *)

let probe () = Exported.seam (Exported.test_only (Exported.empty_reason 1))
