(** SHA-256 (FIPS 180-4). Used by the HMAC-DRBG and the IKE key
    derivation in this reproduction. *)

val digest : string -> string

type ctx
(** An incremental hashing context. It owns its block buffer and its
    message schedule, so a context that is {!reset} and reused
    hashes without allocating. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Start a new message in the same context. Allocates nothing. *)

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [len] bytes of [s] from [off]
    without copying them out first. Allocates nothing. Raises
    [Invalid_argument] if the range is not within [s]. *)

val finalize_into : ctx -> Bytes.t -> int -> unit
(** [finalize_into ctx out off] writes the 32-byte digest to [out] at
    [off]. The padding is written into the context's own block
    buffer, so this allocates nothing. The context must be {!reset}
    before reuse. Raises [Invalid_argument] if the 32 bytes do not fit. *)
