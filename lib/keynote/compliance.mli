(** The KeyNote compliance checker (RFC 2704 §5).

    Given local policy assertions, a set of credentials, the
    requesting principals and an action-attribute set, the checker
    computes the compliance value: the highest element of the query's
    ordered value set that the policy authorizes for this action.

    Evaluation walks the delegation graph rooted at [POLICY]: an
    assertion contributes [min(conditions, licensees)] where the
    licensees structure combines the recursively-computed values of
    the principals it names ([&&] is min, [||] is max, [k-of] is the
    k-th largest). Requesting principals evaluate to [_MAX_TRUST].
    Cycles evaluate to [_MIN_TRUST].

    Assertions live in an {!Index} keyed by licensee principal. A
    query first walks that index backwards from the requesters and
    evaluates only the assertions it reaches: any other assertion
    names no principal that can reach a requester, so its value is
    [_MIN_TRUST] and skipping it changes nothing. The walk also skips
    every assertion whose handle guard ({!Assertion.t.handles})
    excludes the query's [HANDLE]: its conditions evaluate to
    [_MIN_TRUST] before its licensees are looked at, so skipping it
    changes no level and no [trace] line. KeyNote is monotone
    (RFC 2704), so scoping a query to the credentials its handle can
    use is exact. *)

type query = {
  requesters : Ast.principal list; (** who signed the request *)
  attributes : (string * string) list; (** the action attribute set *)
  values : string list; (** ordered compliance values, lowest first *)
}

type result = {
  level : int; (** index into [values] *)
  value : string; (** [List.nth values level] *)
  trace : string list;
      (** human-readable authorization path, for [keynote_check]; filled
          only by the list entry point {!check}, empty from {!evaluate} *)
}

(** A by-licensee index of assertions, the form {!evaluate} walks.

    {b Cost contract.} The index keeps one node per distinct
    principal named by an indexed assertion. Each node lists the
    assertions licensing it, newest first: the unguarded ones, and the
    guarded ones under each handle of their guard set. Licensees are
    resolved to nodes when an assertion is added, so a query compares
    and hashes no principal text beyond its requesters. Each node also
    carries per-query marks (reached, grouped, valued, in progress)
    stamped with the query's number, so a query allocates no table of
    its own. *)
module Index : sig
  type t

  type entry
  (** One indexed assertion; the handle {!remove} takes. *)

  val create : unit -> t

  val add : t -> ?policy:bool -> Assertion.t -> entry
  (** Index an assertion under each (normalized) principal its
      Licensees field names, and under each handle of its guard set
      when it has one. [policy:true] marks local policy: the
      assertion is treated as authored by [POLICY]. Adding the same
      assertion twice indexes it twice; deduplication is the caller's
      business. Cost is proportional to the assertion's licensees
      times its guard set. *)

  val remove : t -> entry -> unit
  (** Drop an entry; cost is proportional to the entries sharing its
      licensee principals and handles, not to the index size. A
      principal no indexed assertion names any more is forgotten. *)

  val assertion : entry -> Assertion.t
  (** As given to {!add} (with [authorizer = "POLICY"] for policy). *)

  val issuer : entry -> Ast.principal
  (** The normalized authorizer ({!Ast.normalize_principal}). *)

  val seq : entry -> int
  (** Rank in insertion order within its index. *)
end

val evaluate : Index.t -> query -> result
(** Evaluate a query against an index, without signature checks (the
    caller admitted only verified credentials) and without building a
    [trace]. Among an issuer's assertions, later additions are visited
    first, exactly as {!check} visits its lists.

    {b Cost contract.} Time is linear in the {e relevant} assertions:
    those on a delegation chain from [POLICY] to a requester that the
    query's [HANDLE] (the empty string when absent) does not guard
    out, plus their conditions. A requester's credentials for other
    handles cost nothing. Allocation is a few words per relevant
    assertion plus what evaluating its conditions allocates; nothing
    is proportional to the index size. Queries on one index must not
    interleave (a query runs to completion without yielding). Raises
    [Invalid_argument] if [values] is empty. *)

val check :
  ?assume_verified:bool -> policy:Assertion.t list -> credentials:Assertion.t list -> query -> result
(** The list entry point: index [policy] then [credentials] in a
    throwaway {!Index} and {!evaluate} it, recording in [trace] each
    discarded credential and each contributing assertion. Credentials
    that fail signature verification are ignored (with a note in
    [trace]). [assume_verified] skips the signature check for
    credential sets that were verified on admission. Raises
    [Invalid_argument] if [values] is empty. *)
