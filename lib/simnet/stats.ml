(* discfs-lint: atomic-section — every counter update is a read-modify-write
   completed inside one scheduler slice; no operation yields. *)

type t = Trace.Metrics.t

let create = Trace.Metrics.create
let incr = Trace.Metrics.incr
let add = Trace.Metrics.add
let get = Trace.Metrics.counter
