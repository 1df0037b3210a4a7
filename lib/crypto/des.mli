(** DES and 3DES-EDE (FIPS 46-3): the ciphers actual 2001-era IPsec
    deployments ran. Provided as an alternative ESP transform so the
    benchmarks can show what the paper's numbers would look like under
    period-accurate (slow) encryption. *)

(* discfs-lint: allow test-only "the FIPS 81 known-answer vectors check single DES one block at a time" *)
val encrypt_block : key:string -> string -> string
(** Single DES on one 8-byte block with an 8-byte key (parity bits
    ignored). Raises [Invalid_argument] on wrong sizes. *)

(* discfs-lint: allow test-only "the known-answer test checks that it inverts encrypt_block" *)
val decrypt_block : key:string -> string -> string

module Triple : sig
  (* discfs-lint: allow test-only "the 3DES known-answer vector checks one EDE block" *)
  val encrypt_block : key:string -> string -> string
  (** 3DES-EDE on one 8-byte block with a 24-byte key (K1|K2|K3). *)

  val cbc_encrypt : key:string -> iv:string -> string -> string
  (** CBC mode with PKCS#5 padding; output length is a multiple of 8
      and strictly larger than the input. [iv] is 8 bytes. *)

  val cbc_decrypt : key:string -> iv:string -> string -> string
  (** Raises [Invalid_argument] on bad length or padding. *)
end
