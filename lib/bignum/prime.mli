(** Primality testing and prime generation.

    Randomness is supplied by the caller as [rand_bits], a function
    returning a uniformly random natural below [2^bits]; this keeps
    the library free of any dependency on a particular RNG. *)

val is_probably_prime : rand_bits:(int -> Nat.t) -> Nat.t -> bool
(** Miller–Rabin with 24 random witnesses, after
    trial division by small primes. Deterministically correct for all
    inputs below 3,215,031,751 via fixed witnesses {2,3,5,7}. *)

val gen_prime : bits:int -> rand_bits:(int -> Nat.t) -> Nat.t
(** Generate a random probable prime of exactly [bits] bits (top bit
    set, odd). *)
