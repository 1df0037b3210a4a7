(** DSA signatures (FIPS 186), the algorithm behind the paper's
    [dsa-hex:] keys and [sig-dsa-sha1-hex:] credential signatures. *)

type params = { p : Bignum.Nat.t; q : Bignum.Nat.t; g : Bignum.Nat.t }
(** Group parameters: [p] prime, [q] a 160-bit prime dividing [p-1],
    [g] a generator of the order-[q] subgroup. *)

type public = { params : params; y : Bignum.Nat.t }
type private_key = { pub : public; x : Bignum.Nat.t }
type signature = { r : Bignum.Nat.t; s : Bignum.Nat.t }

(* discfs-lint: allow test-only "a test regenerates default_params from its seed, checking the committed constants" *)
val generate_params : Drbg.t -> params
(** Generate fresh parameters: a 512-bit [p], as fits the paper's
    2001-era prototype, and a 160-bit [q]. Costly: a prime search of
    some tens of milliseconds. *)

val default_params : unit -> params
(** The shared 512-bit group: {!generate_params} on the fixed seed
    ["discfs-default-dsa-group-v1"], committed as constants. All
    example identities use this group (like a site-wide DSA group
    file). *)

val pow_g : params -> Bignum.Nat.t -> Bignum.Nat.t
(** [pow_g params e] is [g^e mod p]. For the {!default_params} group,
    matched by value so decoded wire parameters count, it goes through
    a fixed-base table built on first use and sized for 160-bit
    exponents; wider exponents and every other group take
    {!Bignum.Modarith.pow}. *)

val pow_mod_p : params -> Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t
(** [pow_mod_p params b e] is [b^e mod p], equal to
    {!Bignum.Modarith.pow}[ ~m:p b e]. For the {!default_params} group,
    matched by [p]'s value, it reuses one Montgomery context (the one
    under {!pow_g}'s table) instead of building one per call. *)

val generate_key : Drbg.t -> private_key
(** Generate a key pair in the {!default_params} group. *)

val sign : ?hash:(string -> string) -> key:private_key -> Drbg.t -> string -> signature
(** [sign ~key drbg msg] signs [hash msg] (default SHA-1, as in the
    paper's [sig-dsa-sha1]; pass [Sha256.digest] for the sha256
    variant) with a DRBG-drawn nonce. *)

val verify : ?hash:(string -> string) -> key:public -> string -> signature -> bool

val pub_encode : public -> string
(** Serialize to the credential wire form (binary; pair with
    {!Hexcodec} for the [dsa-hex:] rendering). *)

val pub_decode : string -> public
(** Raises [Invalid_argument] on malformed input. *)

val priv_encode : private_key -> string
(** Serialize a private key (public part + exponent) for key files
    used by the command-line tools. Handle with care. *)

val priv_decode : string -> private_key

val sig_encode : signature -> string
val sig_decode : string -> signature

val fingerprint : public -> string
(** Short hex fingerprint (first 8 bytes of SHA-1 of the encoding),
    used in logs and audit trails. *)
