(** ChaCha20 stream cipher (RFC 8439). Used as the ESP transform in
    the simulated IPsec stack (stand-in for the paper's kernel ESP). *)

val crypt : key:string -> nonce:string -> string -> string
(** [crypt ~key ~nonce data] XORs [data] with the ChaCha20 keystream
    from block 1, as RFC 8439's encryption does. Encryption and
    decryption are the same operation. Raises
    [Invalid_argument] on wrong key or nonce size. *)

val xor_from :
  key:string ->
  nonce:string ->
  ?counter:int ->
  string ->
  src_off:int ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit
(** [xor_from ~key ~nonce src ~src_off dst ~off ~len] writes
    [src.[src_off .. src_off+len)] XOR keystream into
    [dst.[off .. off+len)]: encryption (or decryption) as one copy,
    from a packet or arena straight into its destination. The
    keystream starts at block [counter] (default 1) and the 32-bit
    block counter wraps as RFC 8439's does. Allocates nothing per
    block. Raises [Invalid_argument] on a bad key/nonce size or an
    out-of-bounds range. *)

val xor_into :
  key:string -> nonce:string -> ?counter:int -> Bytes.t -> off:int -> len:int -> unit
(** In-place variant of {!xor_from}: XORs the keystream into
    [buf.[off .. off+len)]. Raises [Invalid_argument] on a bad
    key/nonce size or an out-of-bounds range. *)

(* discfs-lint: allow test-only "the RFC 8439 block-function vectors and the kernel oracle check one keystream block" *)
val block : key:string -> nonce:string -> counter:int -> string
(** One 64-byte keystream block (exposed for tests against the RFC
    vectors; ESP derives its Poly1305 key with {!xor_into}). *)
