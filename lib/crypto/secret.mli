(** Opaque wrapper for symmetric key material (ESP traffic keys, IKE
    key-derivation output). The wrapper exists for the benefit of
    [discfs-lint]'s secret-flow rule: a value of this type is tagged
    secret, so the linter can prove it never reaches a
    [Trace]/[Format]/show call site. There is deliberately no [pp].

    Handling discipline: unwrap with {!reveal} only at the point of
    use (cipher and PRF calls), never store the revealed string. *)

type t

val of_string : string -> t
(** Wrap raw key bytes. The bytes are copied; the caller's string can
    be let go. *)

val reveal : t -> string
(** The raw key bytes, for handing to a cipher or PRF. *)
