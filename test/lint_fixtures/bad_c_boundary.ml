(* Fixture: C stubs. Under the lib role both externals are findings
   (stubs live in lib/crypto only); under the kernel role only the one
   without [@@noalloc] is, since a stub handed Bytes pointers must not
   let the GC run. The primitives are the runtime's own, so the
   fixture would link. *)

external string_length : string -> int = "caml_ml_string_length"

external bytes_length : Bytes.t -> int = "caml_ml_bytes_length" [@@noalloc]

let lengths s b = string_length s + bytes_length b
