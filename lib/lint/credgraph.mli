(** Pass B of [discfs-lint]: static analysis of a KeyNote credential
    store.

    The compliance checker ({!Keynote.Compliance}) evaluates one
    request at a time; problems like delegation cycles, dead chains
    and over-broad grants only surface (as silent denials) when a
    request happens to hit them. This analyzer builds the delegation
    graph once — [POLICY] at the root, an edge from each authorizer
    to every licensee it names — and reports structural defects
    before deployment:

    - [cycle]: a delegation loop (contributes nothing at request
      time, and usually indicates a mis-issued credential);
    - [unreachable]: no delegation path from [POLICY] reaches the
      credential's issuer, so the credential can never authorize
      anything;
    - [escalation]: the credential grants a compliance value higher
      than its issuer can be authorized for along any chain — the
      grant silently clamps at request time;
    - [expired]: the credential's own validity deadline is in the
      past;
    - [expiry-shadowed]: some link upstream expires before the
      credential's own deadline, so the chain dies earlier than the
      leaf suggests;
    - [revoked] / [revoked-chain]: the credential is revoked (by
      fingerprint or issuer key), or every path to its issuer
      traverses revoked material;
    - [bad-signature]: the credential fails DSA verification and is
      ignored by the checker.

    Validity deadlines are recognized from conditions that bound a
    time attribute ([time], [now], [_TIME], [_NOW], [date],
    case-insensitive) above by a numeric literal, e.g.
    [(time < 86400) -> "RW";]. Disjunctions take the latest branch;
    conjunctions the earliest. *)

type config = {
  values : string list;  (** ordered compliance values, lowest first *)
  now : float option;  (** virtual time for expiry checks; [None] skips them *)
  revoked_keys : Keynote.Ast.principal list;
  revoked_fingerprints : string list;
  verify_signatures : bool;
      (** check DSA signatures on admission, as the server does *)
}

val default_values : string list
(** The DisCFS compliance-value order:
    [false < X < W < WX < R < RX < RW < RWX]. *)

type kind =
  | Cycle
  | Unreachable
  | Escalation
  | Expired
  | Expiry_shadowed
  | Revoked
  | Revoked_chain
  | Bad_signature

val kind_name : kind -> string

type finding = {
  kind : kind;
  fingerprint : string option;
      (** the credential concerned; [None] for graph-level findings
          such as cycles *)
  subject : string;  (** principal(s) concerned, shortened for display *)
  message : string;
}

type report = {
  findings : finding list;  (** deterministic order *)
  n_policy : int;
  n_credentials : int;
  n_principals : int;
  n_reachable : int;  (** principals reachable from [POLICY] *)
}

(* discfs-lint: allow test-only "the graph tests analyze hand-built credential sets without writing a store to disk" *)
val analyze :
  config:config ->
  policy:Keynote.Assertion.t list ->
  credentials:Keynote.Assertion.t list ->
  unit ->
  report

val render : report -> string
(** Multi-line human-readable report ending in a one-line summary;
    byte-stable for a given input. *)

val run_dir : config:config -> string -> (report, string) result
(** [run_dir dir] reads a credential store from disk and runs
    {!analyze} on it. Every regular file is parsed as a KeyNote
    assertion ([Authorizer: POLICY] means local policy), except a file
    named [revoked] or [revoked.txt], whose lines name revoked key
    principals (lines containing [:]) or revoked credential
    fingerprints; those are folded into [config]. Dotfiles and
    [README*] are skipped. *)
