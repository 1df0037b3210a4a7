(** ESP encapsulation over an {!Sa} — ChaCha20-Poly1305 or
    3DES-CBC + HMAC-SHA1-96 depending on the SA's transform — with a
    4-byte SPI + 8-byte sequence header, anti-replay on open, and
    virtual CPU time charged per packet and per byte (the 3DES
    transform charges its period-accurate, much higher rate). *)

exception Esp_error of string

val seal : Sa.t -> string -> string
(** Encrypt-and-authenticate a payload for the SA's next sequence
    number. Under ChaCha20 the payload is copied into the exact-size
    wire packet and encrypted and authenticated there, in place: one
    allocation, one copy. *)

type arena = Xdr.Enc.t
(** A message arena: the encoder a message is built in from XDR
    encode through seal. *)

val arena : unit -> arena
val arena_enc : arena -> Xdr.Enc.t
(** The encoder to build the message payload in. *)

val seal_arena : Sa.t -> arena -> string
(** {!seal} of the arena's message: the same seal core gathers the
    arena's own bytes and borrowed ranges ({!Xdr.Enc.gather}) straight
    into the wire packet, then encrypts and authenticates in place.
    The arena is not modified, so sealing it again — under a fresh
    sequence number — is how a retransmission is built. *)

val open_in_place : Sa.t -> Bytes.t -> Xdr.Dec.t
(** Verify, replay-check and decrypt a packet the caller owns, where
    it lies: length, SPI, tag and replay window are checked before a
    byte is written (RFC 4303 §3.4), then the ciphertext is decrypted
    over itself and the result is a cursor bounded to the plaintext,
    inside the packet. Raises {!Esp_error} on a malformed length
    (counted under the [esp.drop.malformed] metric), bad SPI, failed
    tag, or replayed sequence number, and then leaves the packet
    byte-for-byte as it was. The 3DES transform decrypts into a fresh
    plaintext instead and never writes to the packet. *)

val open_ : Sa.t -> string -> string
(** {!open_in_place}'s checks and errors on a packet that is only
    read: the plaintext is decrypted into one fresh string. *)

(* discfs-lint: allow test-only "the ESP shape tests and the reference pipeline size packets by it" *)
val overhead : int
(** Bytes added to each packet (header + tag) under
    [Chacha20_poly1305]; the 3DES transform adds header + CBC
    padding + a 12-byte tag instead. *)
