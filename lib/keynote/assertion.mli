(** KeyNote assertions: the signed policy statements that DisCFS uses
    as credentials (RFC 2704 §3-4).

    An assertion is a small text document of fields:

    {v
    KeyNote-Version: 2
    Authorizer: "dsa-hex:3081de..."
    Licensees: "dsa-hex:5be60a..."
    Conditions: (app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";
    Comment: testdir
    Signature: "sig-dsa-sha1-hex:302e02..."
    v}

    Policy assertions have [Authorizer: POLICY] and no signature;
    credentials are signed by the authorizer's DSA key. *)

type t = {
  version : string option;
  authorizer : Ast.principal;
  licensees : Ast.licensees option;
  conditions : Ast.program option; (** [None] means unconditional. *)
  local_constants : (string * string) list;
  comment : string option;
  signature : string option; (** Raw signature field value. *)
  body_text : string; (** Exact bytes covered by the signature. *)
  full_text : string; (** The complete assertion text. *)
  fingerprint : string; (** See {!val-fingerprint}; computed once, by {!parse}. *)
  handles : string list option;
      (** The handle guard, computed once by {!parse}: the [HANDLE]
          values, as {!Expr.equality_key}s, outside which the
          conditions evaluate to the lowest value, or [None] when the
          syntax does not pin [HANDLE]. It is [Some] when every clause
          has a top-level [&&]-conjunct that is [HANDLE == "<lit>"] or
          a disjunction of such comparisons, and no Local-Constant is
          named [HANDLE]. A [HANDLE] under [!] or beside another test
          at the top of an [||] leaves the clause, and so the
          assertion, unguarded. *)
}

exception Parse_error of string

val parse : string -> t
(** Parse an assertion from text. Raises {!Parse_error} (also wraps
    lexer and field-parser errors). *)

val sig_alg : string
(** ["sig-dsa-sha1-hex:"], the paper's algorithm and the default. *)

val principal_of_pub : Dcrypto.Dsa.public -> Ast.principal
(** Canonical [dsa-hex:...] rendering of a public key. *)

val pub_of_principal : Ast.principal -> Dcrypto.Dsa.public option
(** Inverse of {!principal_of_pub}; [None] for names like [POLICY] or
    malformed keys. *)

val issue :
  key:Dcrypto.Dsa.private_key ->
  drbg:Dcrypto.Drbg.t ->
  ?comment:string ->
  (* discfs-lint: allow test-only "Local-Constants come only from credentials written elsewhere; the KeyNote tests issue them to check their resolution and shadowing" *)
  ?local_constants:(string * string) list ->
  licensees:string ->
  conditions:string ->
  unit ->
  t
(** Build and sign ([sig-dsa-sha1-hex]) a credential. [licensees]
    and [conditions] are raw field bodies, e.g.
    [{|"dsa-hex:ab..." && "dsa-hex:cd..."|}] and
    [{|app_domain == "DisCFS" -> "RW";|}]. *)

val policy :
  (* discfs-lint: allow test-only "the handle-guard tests check that a Local-Constant named HANDLE disables the guard" *)
  ?local_constants:(string * string) list ->
  licensees:string ->
  conditions:string ->
  unit ->
  t
(** Build an unsigned local-policy assertion ([Authorizer: POLICY]). *)

val verify : t -> bool
(** Check the signature against the authorizer key. Unsigned
    assertions and non-key authorizers verify as [false]. *)

val to_text : t -> string
(** The full assertion text ([full_text]); reparsing it yields an
    equal assertion. *)

val fingerprint : t -> string
(** Stable short id: hex of the first 8 bytes of SHA-1 of the full
    text, computed once when the assertion is parsed (so also by
    {!issue} and {!policy}). Used for revocation lists, logs and the
    session's credential table. *)
