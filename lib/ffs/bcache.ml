(* discfs-lint: atomic-section — cache mutation completes inside one slice;
   fills that straddle a yield are generation-guarded (insert_if) and every
   access is instrumented for the dynamic checker (set_race). *)

(* Doubly-linked intrusive LRU so find/insert/evict are all O(1);
   the node table and the list share the same records. *)

type node = {
  index : int;
  mutable data : bytes;
  mutable prev : node option; (* towards MRU *)
  mutable next : node option; (* towards LRU *)
}

type t = {
  capacity : int;
  nodes : (int, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
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
    capacity;
    nodes = Hashtbl.create (max 16 capacity);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    generation = 0;
    stale_fills = 0;
    race = Race.null;
  }

let capacity t = t.capacity
let size t = Hashtbl.length t.nodes
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let generation t = t.generation
let stale_fills t = t.stale_fills
let set_race t m = t.race <- m

(* Detach [n] from the recency list (not from the table). *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

(* The cache never writes a stored block in place — an update swaps
   in another block — so the block handed out here stays as it was.
   Race keys are rendered only for an armed monitor. *)
let find_shared t i =
  if t.capacity = 0 then None
  else
  match Hashtbl.find_opt t.nodes i with
  | Some n ->
    t.hits <- t.hits + 1;
    if Race.enabled t.race then Race.read t.race ~key:(string_of_int i);
    unlink t n;
    push_front t n;
    Some n.data
  | None ->
    t.misses <- t.misses + 1;
    (* A miss opens a check-then-act window: the caller will go to
       disk (yielding) and fill this index on return. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    None

let find t i = Option.map Bytes.copy (find_shared t i)

let mem t i =
  if Hashtbl.mem t.nodes i then true
  else begin
    (* A readahead presence probe is also a fill decision. *)
    if Race.enabled t.race then Race.check t.race ~key:(string_of_int i);
    false
  end

let remove t i =
  if Race.enabled t.race then Race.write t.race ~key:(string_of_int i) ();
  match Hashtbl.find_opt t.nodes i with
  | Some n ->
    unlink t n;
    Hashtbl.remove t.nodes i
  | None -> ()

let evict_lru t =
  match t.lru with
  | Some n ->
    unlink t n;
    Hashtbl.remove t.nodes n.index;
    t.evictions <- t.evictions + 1
  | None -> ()

let insert t i data =
  if t.capacity > 0 then begin
    (* The act's value is a copy of the block: build it only for a
       live monitor, not on every fill. *)
    if Race.enabled t.race then
      Race.act t.race ~value:(Bytes.to_string data) ~key:(string_of_int i) ();
    (* The block itself is stored, not a copy: the caller hands it
       over (see bcache.mli). *)
    match Hashtbl.find_opt t.nodes i with
    | Some n ->
      n.data <- data;
      unlink t n;
      push_front t n
    | None ->
      if Hashtbl.length t.nodes >= t.capacity then evict_lru t;
      let n = { index = i; data; prev = None; next = None } in
      Hashtbl.replace t.nodes i n;
      push_front t n
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
  Hashtbl.reset t.nodes;
  t.mru <- None;
  t.lru <- None;
  t.generation <- t.generation + 1;
  Race.wipe t.race
