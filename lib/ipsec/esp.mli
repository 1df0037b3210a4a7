(** ESP encapsulation over an {!Sa} — ChaCha20-Poly1305 or
    3DES-CBC + HMAC-SHA1-96 depending on the SA's transform — with a
    4-byte SPI + 8-byte sequence header, anti-replay on open, and
    virtual CPU time charged per packet and per byte (the 3DES
    transform charges its period-accurate, much higher rate). *)

exception Esp_error of string

val seal : Sa.t -> string -> string
(** Encrypt-and-authenticate a payload for the SA's next sequence
    number. Under ChaCha20 the payload is encrypted straight into the
    exact-size wire packet: one allocation, one copy. *)

type arena = Xdr.Enc.t
(** A message arena: the encoder a message is built in from XDR
    encode through seal. *)

val arena : unit -> arena
val arena_enc : arena -> Xdr.Enc.t
(** The encoder to build the message payload in. *)

val seal_arena : Sa.t -> arena -> string
(** {!seal} of the arena's bytes, read where they lie: the payload is
    encrypted from the arena straight into the wire packet. The arena
    is not modified, so sealing it again — under a fresh sequence
    number — is how a retransmission is built. *)

val open_ : Sa.t -> string -> string
(** Verify, replay-check and decrypt. Raises {!Esp_error} on a
    malformed length (counted under the [esp.drop.malformed] metric),
    bad SPI, failed tag, or replayed sequence number. *)

val overhead : int
(** Bytes added to each packet (header + tag) under
    [Chacha20_poly1305]; the 3DES transform adds header + CBC
    padding + a 12-byte tag instead. *)
