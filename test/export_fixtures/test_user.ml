(* Scanned as test code: [Exported.test_only]'s one reference. *)

let probe () = Exported.test_only 1
