(** Access-control lists for the WebFS-style comparator (paper §3.1):
    "Access control lists (ACLs) are associated with each file that
    enumerate users who have read, write, or execute permission on
    individual files. Users are uniquely identified by their public
    keys."

    This is the design DisCFS argues against: every grant is a piece
    of *server-side state* that an administrator must install, and
    the server must know every user a priori. The module tracks
    exactly that state so the scalability benchmark can measure it. *)

type bits = int
(** rwx bits, r=4 w=2 x=1. *)

type t

val create : unit -> t

val register_user : t -> principal:string -> unit
(** Add a user to the server's registry (the "account" DisCFS does
    away with). Idempotent. *)

val grant : t -> ino:int -> principal:string -> bits -> unit
(** Install an ACL entry; requires the user to be registered
    (raises [Invalid_argument] otherwise — exactly the a-priori
    knowledge requirement). Overwrites any previous entry. *)

val lookup : t -> ino:int -> principal:string -> bits
(** 0 when no entry applies. *)

val state_bytes : t -> int
(** Approximate server-side bytes consumed by the registry and ACL
    entries (principals are full public keys). *)
