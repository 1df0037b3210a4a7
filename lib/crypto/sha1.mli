(** SHA-1 (FIPS 180-4). Used by DisCFS for KeyNote [sig-dsa-sha1]
    credential signatures, matching the paper's prototype. *)

val digest : string -> string
(** [digest msg] is the 20-byte binary SHA-1 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the lowercase hex encoding of [digest msg]. *)
