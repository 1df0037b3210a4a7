(* Fixture: arguments built for a race monitor or a tracer on every
   call, armed or not. Under Race.null / Trace.null each one is
   allocated and thrown away. Seven findings. *)

let key_of peer xid = Printf.sprintf "%s/%d" peer xid

let probe m peer xid = Race.check m ~key:(key_of peer xid)

let fill m i data = Race.act m ~value:(Bytes.to_string data) ~key:(string_of_int i) ()

let label m proc = Race.note m ("rpc proc=" ^ string_of_int proc)

(* The else-branch of the guard runs disarmed. *)
let wrong_branch m i = if Race.enabled m then () else Race.write m ~key:(string_of_int i) ()

let traced tr n f = Trace.span tr ~attrs:[ ("n", string_of_int n) ] "op" f

(* A list built around a variable allocates too. *)
let marked tr name = Trace.instant tr ~attrs:[ ("name", name) ] "mark"
