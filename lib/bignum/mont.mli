(** Montgomery modular arithmetic for a fixed odd modulus (Menezes et
    al., {i Handbook of Applied Cryptography} §14.3 and §14.6).

    A context holds the modulus limbs, [-m^-1 mod 2^26], [R^2 mod m]
    for [R = 2^(26n)], and one product scratch buffer: a modular
    multiply inside it allocates nothing. Results are exact, equal to
    {!Modarith.pow}'s plain square-and-multiply; nothing here is
    constant-time.

    A context's scratch buffer is mutable, so a context must not be
    used from two domains at once. *)

type ctx

val applies : Nat.t -> bool
(** [applies m] holds when [m] is odd, has more than one limb and at
    most 256 (6656 bits, the widest whose product columns fit in a
    native [int]): the moduli {!Modarith.pow} routes here. *)

val create : Nat.t -> ctx
(** Raises [Invalid_argument] unless the modulus is odd, greater than
    one and at most 256 limbs. *)

val pow : ctx -> Nat.t -> Nat.t -> Nat.t
(** [pow c b e] is [b^e mod m] by a left-to-right sliding window of 4
    bits. [b] need not be reduced; [pow c b zero = one]. *)

type fixed_base
(** A fixed-base table for one base [g]: [g^(16^i)] for every 4-bit
    digit position [i] of the exponent width it was built for
    ([bits / 4] residues of the modulus size). *)

val fixed_base : ctx -> Nat.t -> bits:int -> fixed_base
(** [fixed_base c g ~bits] precomputes the table for exponents of up
    to [bits] bits. *)

val pow_fixed : fixed_base -> Nat.t -> Nat.t
(** [pow_fixed t e] is [g^e mod m] with one multiply per nonzero
    exponent digit plus at most 15 more, and no squarings. Exponents
    wider than the table fall back to {!pow}. *)
