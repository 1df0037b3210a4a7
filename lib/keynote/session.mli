(** A persistent KeyNote session, as kept by the DisCFS daemon:
    local policy plus every credential successfully submitted over
    RPC (paper §5).

    The credential store is indexed three ways, each kept up to date
    on every add and remove: by fingerprint (deduplication, removal,
    lookup), by authorizer (revoking a key) and, inside a
    {!Compliance.Index}, by licensee principal (the backward walk
    {!query} starts from). Principals are indexed in their
    {!Ast.normalize_principal} form, computed once per credential. No
    operation scans the whole store: an add or a removal costs the
    same at any store size, and a query is linear in the assertions
    relevant to its requesters and its [HANDLE] (the cost contract of
    {!Compliance.evaluate}). *)

type t

val create :
  values:string list -> ?policy:Assertion.t list -> ?trace:Trace.t -> unit -> t
(** [values] is the ordered compliance-value set, lowest first, e.g.
    [["false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX"]]. Each
    {!query} is recorded on [trace] as a ["keynote.compliance"]
    span; on a disabled tracer no span closure is built. *)

val add_policy : t -> Assertion.t -> unit

val add_credential : t -> Assertion.t -> (unit, string) result
(** Verify the signature and add; duplicates (same fingerprint) are
    accepted idempotently. *)

val add_credential_text : t -> string -> (unit, string) result
(** Parse then {!add_credential}. *)

val remove_credential : t -> fingerprint:string -> bool
(** Drop a credential by fingerprint; returns whether it was
    present. Supports the paper's server-side revocation. *)

val remove_authored : t -> authorizer:Ast.principal -> int
(** Drop every credential whose authorizer is [authorizer] (compared
    with {!Ast.principal_equal}), through the by-authorizer index;
    returns how many were dropped. Supports key revocation. *)

val find_credential : t -> fingerprint:string -> Assertion.t option

val credentials : t -> Assertion.t list
(** In insertion order (a removed and re-added credential counts as
    new). *)

val size : t -> int
(** Number of credentials. *)

val policy : t -> Assertion.t list
val values : t -> string list

val query :
  t -> requesters:Ast.principal list -> attributes:(string * string) list -> Compliance.result
(** {!Compliance.evaluate} over the session's index; the result's
    [trace] is empty. *)
