(* Fixture: the same call sites as bad_monitor_off.ml, each paying
   only when the monitor or tracer is armed — clean. *)

let probe m peer xid =
  if Race.enabled m then Race.check m ~key:(Printf.sprintf "%s/%d" peer xid)

let fill m i data =
  if Race.enabled m && i >= 0 then
    Race.act m ~value:(Bytes.to_string data) ~key:(string_of_int i) ()

(* A key passed by name was built elsewhere. *)
let read m key = Race.read m ~key

let traced tr n f =
  let attrs = if Trace.enabled tr then Some [ ("n", string_of_int n) ] else None in
  Trace.span tr ?attrs "op" f

(* A literal list is a static constant: it costs nothing per call. *)
let layered tr f = Trace.span tr ~attrs:[ ("layer", "rpc") ] "op" f
