(** Poly1305 one-time authenticator (RFC 8439). *)

val mac : key:string -> string -> string
(** [mac ~key msg] with a 32-byte one-time key returns the 16-byte
    tag. Raises [Invalid_argument] on wrong key size. *)

val mac_sub : key:string -> string -> off:int -> len:int -> string
(** [mac_sub ~key msg ~off ~len] authenticates the substring
    [msg.[off .. off+len)] without copying it; used by the ESP hot
    path to MAC a header+ciphertext prefix in place. Raises
    [Invalid_argument] on a wrong key size or out-of-bounds range. *)
