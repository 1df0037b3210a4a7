(** Modular arithmetic over {!Nat}. *)

val add : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [add ~m a b] is [(a + b) mod m]; inputs need not be reduced. *)

val sub : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [sub ~m a b] is [(a - b) mod m], always non-negative. *)

val mul : m:Nat.t -> Nat.t -> Nat.t -> Nat.t

val pow : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [pow ~m b e] is [b^e mod m]. Odd moduli of more than one limb go
    through {!Mont} (sliding window); even and one-limb moduli use
    left-to-right square and multiply. [b] need not be reduced;
    [pow ~m b Nat.zero = Nat.one] for [m > 1], and [pow ~m:Nat.one]
    is [Nat.zero]. *)

val gcd : Nat.t -> Nat.t -> Nat.t

val inv : m:Nat.t -> Nat.t -> Nat.t
(** [inv ~m a] is the multiplicative inverse of [a] modulo [m].
    Raises [Not_found] if [gcd a m <> 1]. *)
