(* discfs-lint: atomic-section — cache mutation completes inside one slice;
   fills that straddle a yield are generation-guarded (insert_if) and every
   access is instrumented for the dynamic checker (set_race). *)

type t = {
  blocks : (int, bytes) Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable generation : int;
  mutable stale_fills : int;
  mutable race : Race.monitor;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Bcache.create: negative capacity";
  {
    blocks = Lru.create ~capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    generation = 0;
    stale_fills = 0;
    race = Race.null;
  }

let capacity t = Lru.capacity t.blocks
let size t = Lru.length t.blocks
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
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
    t.hits <- t.hits + 1;
    if Race.enabled t.race then Race.read t.race ~key:(string_of_int i);
    hit
  | None ->
    t.misses <- t.misses + 1;
    (* A miss opens a check-then-act window: the caller will go to
       disk (yielding) and fill this index on return. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    None

let find t i = Option.map Bytes.copy (find_shared t i)

let mem t i =
  if Lru.mem t.blocks i then true
  else begin
    (* A readahead presence probe is also a fill decision. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    false
  end

let remove t i =
  if Race.enabled t.race then Race.write t.race ~key:(string_of_int i) ();
  Lru.remove t.blocks i

let insert t i data =
  if capacity t > 0 then begin
    (* The act's value is a copy of the block: build it only for a
       live monitor, not on every fill. *)
    if Race.enabled t.race then
      Race.act t.race ~value:(Bytes.to_string data) ~key:(string_of_int i) ();
    (* The block itself is stored, not a copy: the caller hands it
       over (see bcache.mli). *)
    t.evictions <- t.evictions + Lru.replace t.blocks i data
  end

(* Generation-guarded fill: a fill whose decision (miss, readahead
   probe, write-through) predates the last {!drop} must not warm the
   next incarnation's deliberately-cold cache — the I/O it rode
   yielded across a crash. Callers capture {!generation} before the
   yield and fill through here. *)
let insert_if t ~generation i data =
  if generation = t.generation then insert t i data
  else t.stale_fills <- t.stale_fills + 1

let drop t =
  Lru.clear t.blocks;
  t.generation <- t.generation + 1;
  Race.wipe t.race
