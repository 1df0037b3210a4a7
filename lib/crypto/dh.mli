(** Ephemeral Diffie-Hellman over the DSA group, used by the IKE
    handshake to establish per-SA keys. *)

type secret
type share = Bignum.Nat.t
(** The public value [g^x mod p]. *)

val gen : Drbg.t -> secret * share
(** Fresh ephemeral exponent and its public share, in the default
    group ({!Dsa.default_params}). *)

val shared : secret -> share -> string
(** [shared secret peer_share] is a 32-byte key:
    SHA-256 of the big-endian encoding of [peer^x mod p]. Raises
    [Invalid_argument] if the peer share is outside [[2, p-2]]. *)
