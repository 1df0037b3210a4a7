(* The exports the fixture modules reach in five ways. *)

val via_alias : int -> int
(** Used only through [module E = Exported] in [Alias_user]. *)

module Make (_ : sig
  val base : int
end) : sig
  val via_functor : unit -> int
  (** Reached only through [Functor_user]'s include of an instance. *)
end

(* discfs-lint: allow test-only "a seam with its reason stated" *)
val seam : int -> int
(** Used only by [Test_user], as a justified test seam. *)

val test_only : int -> int
(** Used only by [Test_user], which the test scans as test code. *)

val empty_reason : int -> int (* discfs-lint: allow test-only "" *)
(** Used only by [Test_user]; its marker states no reason. *)

val unused : int -> int
(** Used by nothing but this module itself. *)
