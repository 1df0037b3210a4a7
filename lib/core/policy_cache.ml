(* discfs-lint: atomic-section — lookup/add/flush complete inside one slice;
   the check-then-act window across a cold policy evaluation is instrumented
   for the dynamic checker (set_race), with epoch-keyed duplicate fills
   benign. *)

type t = {
  entries : (string, int) Lru.t; (* key -> compliance level *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
  stats : Simnet.Stats.t;
  mutable race : Race.monitor;
}

let create ~stats ~size =
  if size < 0 then invalid_arg "Policy_cache.create: negative size";
  {
    entries = Lru.create ~capacity:size;
    hits = 0;
    misses = 0;
    evictions = 0;
    flushes = 0;
    stats;
    race = Race.null;
  }

let set_race t m = t.race <- m

(* The memo key: the canonical encoding itself of the credential-set
   epoch (a generation number), the requesting principal's interned id
   and the exact action-attribute set the compliance checker would
   see. The table lives in memory, so an exact key needs no digest and
   cannot collide. Keying on the *attributes* (not the handle) means
   anything that changes the KeyNote question — a renamed PATH, a
   bumped GENERATION, a different hour — naturally keys a different
   entry, with no flush-on-rename heuristics; folding in the epoch
   retires every entry the moment the credential set changes. The key
   is written once, at its exact length. *)
let key ~peer ~attributes ~epoch =
  let epoch = string_of_int epoch and peer = string_of_int peer in
  let attributes = List.sort compare attributes in
  let len =
    List.fold_left
      (fun n (k, v) -> n + 2 + String.length k + String.length v)
      (String.length epoch + 1 + String.length peer)
      attributes
  in
  let b = Bytes.create len in
  let put pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let pos = put 0 epoch in
  Bytes.set b pos '\000';
  let pos = put (pos + 1) peer in
  ignore
    (List.fold_left
       (fun pos (k, v) ->
         Bytes.set b pos '\000';
         let pos = put (pos + 1) k in
         Bytes.set b pos '=';
         put (pos + 1) v)
       pos attributes);
  Bytes.unsafe_to_string b

let find t ~key =
  match Lru.find t.entries key with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    Race.read t.race ~key;
    hit
  | None ->
    t.misses <- t.misses + 1;
    (* A miss commits the caller to a (yielding) KeyNote query whose
       answer it will memoize: a check-then-act window. Keys embed
       the credential epoch, so concurrent duplicate fills carry the
       same level and classify benign. *)
    Race.check t.race ~key;
    None

let add t ~key level =
  if Lru.capacity t.entries > 0 then begin
    if Race.enabled t.race then Race.act t.race ~value:(string_of_int level) ~key ();
    (* A fill evicts at most one entry. *)
    if Lru.replace t.entries key level > 0 then begin
      t.evictions <- t.evictions + 1;
      Simnet.Stats.incr t.stats "cache.policy.evictions"
    end
  end

let flush t =
  if Lru.length t.entries > 0 then t.flushes <- t.flushes + 1;
  Lru.clear t.entries;
  (* Epoch-keyed entries can never be refilled under their old keys
     after a flush (the epoch changed), so surviving check windows
     are dead — drop them rather than let them pair across the flush. *)
  Race.wipe t.race

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let flushes t = t.flushes
let size t = Lru.length t.entries
let capacity t = Lru.capacity t.entries
