(** Deterministic random bit generator (HMAC-DRBG, SP 800-90A style,
    instantiated with HMAC-SHA256).

    Everything in this reproduction that needs randomness — key
    generation, DSA nonces, IKE cookies, workload generation — draws
    from a seeded DRBG so runs are exactly reproducible. *)

type t

val create : seed:string -> t
(** Instantiate from arbitrary seed material. The generator owns its
    key, its value and an HMAC state, so drawing from it hashes
    without allocating. *)

val bytes : t -> int -> string
(** [bytes t n] produces [n] pseudorandom bytes and advances the
    state. Allocates only the [n]-byte result. *)

val rand_bits : t -> int -> Bignum.Nat.t
(** Uniform natural in [[0, 2^bits)]. *)

val nat_below : t -> Bignum.Nat.t -> Bignum.Nat.t
(** Uniform natural in [[0, n)] by rejection sampling. Raises
    [Invalid_argument] if [n] is zero. Each draw allocates its byte
    string and the naturals built from it: 27 words below a 160-bit
    bound on OCaml 5.1. *)

val int_below : t -> int -> int
(** Uniform int in [[0, n)]; [n] must be positive. *)

val fork : t -> label:string -> t
(** Derive an independent child generator; parent state advances. *)
