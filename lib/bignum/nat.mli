(** Arbitrary-precision natural numbers.

    Limbs are stored little-endian in base [2^26] so that double-limb
    products and long accumulations fit comfortably in OCaml's native
    63-bit integers. Values are always normalized (no high zero
    limbs); [zero] is the empty array. All operations are functional:
    inputs are never mutated.

    The representation is visible read-only, so {!Mont} and
    {!Modarith} can run fixed-width kernels over the limbs without a
    copy; values are built only through this interface. *)

type t = private int array
(** Little-endian 26-bit limbs, highest limb nonzero. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. Raises
    [Invalid_argument] if [n < 0]. *)

val of_limbs : int array -> t
(** [of_limbs a] is the value of the little-endian 26-bit limbs [a],
    which may carry high zero limbs. The result may share [a]; the
    caller must not mutate [a] afterwards. Raises [Invalid_argument]
    if a limb is outside [0, 2^26). *)

val to_int : t -> int
(** [to_int n] converts back to [int]. Raises [Failure] if the value
    does not fit. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero] if
    [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit : t -> int -> bool
(** [bit n i] is the [i]th bit of [n] (bit 0 is least significant). *)

val num_bits : t -> int
(** Number of significant bits; [num_bits zero = 0]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val succ : t -> t
val pred : t -> t

val is_even : t -> bool
val is_odd : t -> bool

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian byte string, minimal length unless [len] pads with
    leading zeros. Raises [Invalid_argument] if the value needs more
    than [len] bytes. *)

val of_hex : string -> t
(** Parse a hexadecimal string (no [0x] prefix, case-insensitive).
    Raises [Invalid_argument] on non-hex input. *)

val to_hex : t -> string
(** Lowercase hexadecimal, minimal length, ["0"] for zero. *)

val of_decimal : string -> t
val to_decimal : t -> string

val pp : Format.formatter -> t -> unit
(** Prints the decimal representation. *)
