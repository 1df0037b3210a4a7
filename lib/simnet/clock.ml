type t = {
  mutable now : float;
  mutable advance_hook : (float -> unit) option;
  mutable epoch : int;
}

let create () = { now = 0.0; advance_hook = None; epoch = 0 }
let now t = t.now
let epoch t = t.epoch

let advance t dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative dt";
  match t.advance_hook with
  | Some hook when dt > 0.0 ->
    (* With a scheduler attached every positive charge is a potential
       yield point. *)
    hook dt
  | _ -> t.now <- t.now +. dt

let set t time = if time > t.now then t.now <- time
let set_advance_hook t hook = t.advance_hook <- hook
let reset t =
  t.now <- 0.0;
  t.epoch <- t.epoch + 1

let time t f =
  let start = t.now in
  let result = f () in
  (result, t.now -. start)
