(* Fixture: a [@@noalloc] C stub behind an OCaml-side range check —
   clean under the kernel role (the role lib/crypto gets). *)

external bytes_length : Bytes.t -> int = "caml_ml_bytes_length" [@@noalloc]

let checked_length b = if Bytes.length b > 0 then bytes_length b else 0
