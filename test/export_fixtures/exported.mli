(* The four exports the fixture modules reach in four ways. *)

val via_alias : int -> int
(** Used only through [module E = Exported] in [Alias_user]. *)

module Make (_ : sig
  val base : int
end) : sig
  val via_functor : unit -> int
  (** Reached only through [Functor_user]'s include of an instance. *)
end

val test_only : int -> int
(** Used only by [Test_user], which the test scans as test code. *)

val unused : int -> int
(** Used by nothing but this module itself. *)
