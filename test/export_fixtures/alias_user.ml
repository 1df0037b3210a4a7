(* Reaches [Exported.via_alias] only through a local module alias. *)

module E = Exported

let twice x = E.via_alias (E.via_alias x)
