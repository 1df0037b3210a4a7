(** A WebFS-like file service: the NFS substrate with per-file ACLs
    of public keys instead of credentials. Clients still authenticate
    their keys through the IKE channel; authorization consults the
    server-resident ACL.

    The contrast with DisCFS (paper §3.1): every external user must
    first be registered by the administrator and every grant is an
    administrator-side ACL update, so onboarding N users costs the
    administrator O(N) actions and the server O(N) a-priori state —
    measured by the scalability benchmark. *)

type t

val create : fs:Ffs.Fs.t -> unit -> t

val acl : t -> Acl.t

val admin_register : t -> principal:string -> unit
(** Administrator action: create the "account". *)

val admin_grant : t -> ino:int -> principal:string -> bits:int -> unit
(** Administrator action: install an ACL entry. Counts toward
    {!admin_ops}. Raises if the user is not registered. *)

val admin_ops : t -> int
(** Total administrator interventions so far (registrations and
    grants). *)

val attach_rpc : t -> Oncrpc.Rpc.server -> unit
(** Register NFS + mount programs with ACL-enforcing hooks. The
    per-operation ACL lookup charges [keynote_cached]-class time (a
    hash probe — ACL checks are cheap; what they cost is
    administration, not CPU). *)
