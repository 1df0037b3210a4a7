(* discfs-lint: atomic-section — cache mutation completes inside one slice;
   fills that straddle a yield are generation-guarded (insert_if) and every
   access is instrumented for the dynamic checker (set_race). *)

type t = {
  blocks : (int, bytes) Lru.t;
  mutable generation : int;
  mutable stale_fills : int;
  mutable race : Race.monitor;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Bcache.create: negative capacity";
  {
    blocks = Lru.create ~capacity;
    generation = 0;
    stale_fills = 0;
    race = Race.null;
  }

let capacity t = Lru.capacity t.blocks
let generation t = t.generation
let stale_fills t = t.stale_fills
let set_race t m = t.race <- m

(* The cache never writes a stored block in place — an update swaps
   in another block — so the block handed out here stays as it was.
   Race keys are rendered only for an armed monitor. *)
let find_shared t i =
  if capacity t = 0 then None
  else
  match Lru.find t.blocks i with
  | Some _ as hit ->
    if Race.enabled t.race then Race.read t.race ~key:(string_of_int i);
    hit
  | None ->
    (* A miss opens a check-then-act window: the caller will go to
       disk (yielding) and fill this index on return. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    None

let mem t i =
  if Lru.mem t.blocks i then true
  else begin
    (* A readahead presence probe is also a fill decision. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    false
  end

let remove t i =
  if Race.enabled t.race then Race.write t.race ~key:(string_of_int i);
  Lru.remove t.blocks i

(* Generation-guarded fill: a fill whose decision (miss, readahead
   probe, write-through) predates the last {!drop} must not warm the
   next incarnation's deliberately-cold cache — the I/O it rode
   yielded across a crash. Callers capture {!generation} before the
   yield and fill through here. *)
let insert_if t ~generation i data =
  if generation <> t.generation then begin
    t.stale_fills <- t.stale_fills + 1;
    0
  end
  else if capacity t = 0 then 0
  else begin
    (* The act's value is a copy of the block: build it only for a
       live monitor, not on every fill. *)
    if Race.enabled t.race then
      Race.act t.race ~value:(Bytes.to_string data) ~key:(string_of_int i) ();
    (* The block itself is stored, not a copy: the caller hands it
       over (see bcache.mli). *)
    Lru.replace t.blocks i data
  end

let drop t =
  Lru.clear t.blocks;
  t.generation <- t.generation + 1;
  Race.wipe t.race
