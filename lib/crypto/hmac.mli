(** HMAC (RFC 2104) over SHA-1 or SHA-256. *)

val sha1 : key:string -> string -> string
(** [sha1 ~key msg] is the 20-byte HMAC-SHA1 tag. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC-SHA256 tag. It hashes in
    one state kept for the whole process, so its only allocation is
    the tag (and a digest of a key longer than 64 bytes). *)

type sha256_ctx
(** A reusable HMAC-SHA256 state, for a message that arrives in
    parts: {!sha256_start}, any number of {!sha256_add}, then
    {!sha256_finish_into}. None of the three allocates (with a key of
    at most 64 bytes). *)

val sha256_ctx : unit -> sha256_ctx

val sha256_start : sha256_ctx -> key:string -> unit
(** Begin a tag under [key]. The key is read here and not kept, so
    the caller may overwrite it before finishing. *)

val sha256_add : sha256_ctx -> string -> int -> int -> unit
(** [sha256_add c s off len] appends [len] bytes of [s] from [off]
    to the message. *)

val sha256_finish_into : sha256_ctx -> Bytes.t -> int -> unit
(** [sha256_finish_into c out off] writes the 32-byte tag to [out] at
    [off]. The state is ready for the next {!sha256_start}. *)

val equal : string -> string -> bool
(** Constant-time comparison of equal-length tags (returns [false] on
    length mismatch without early exit on content). *)
