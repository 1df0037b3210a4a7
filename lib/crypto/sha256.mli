(** SHA-256 (FIPS 180-4). Used by the HMAC-DRBG and the IKE key
    derivation in this reproduction. *)

val digest : string -> string
val hex : string -> string

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit
val finalize : ctx -> string
