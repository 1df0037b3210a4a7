(* discfs-lint: atomic-section — lookup/add/flush complete inside one slice;
   the check-then-act window across a cold policy evaluation is instrumented
   for the dynamic checker (set_race), with epoch-keyed duplicate fills
   benign. *)

type t = {
  entries : (string, int) Lru.t; (* key -> compliance level *)
  mutable hits : int;
  mutable misses : int;
  stats : Simnet.Stats.t;
  mutable race : Race.monitor;
}

let create ~stats ~size =
  if size < 0 then invalid_arg "Policy_cache.create: negative size";
  {
    entries = Lru.create ~capacity:size;
    hits = 0;
    misses = 0;
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
   retires every entry the moment the credential set changes.

   The key is written once, at its exact length, straight from the
   values: no intermediate strings and no sort. *)

(* The action attributes, in the order a sort of the pairs puts them
   (uppercase names first): the one place they are listed. [attributes]
   and [key] both walk them through this fold, so the set KeyNote
   evaluates and the key it is memoised under cannot drift apart. Each
   caller passes closed functions for [int] and [str], so the walk
   itself allocates nothing. *)
let fold_attributes ctx ~ino ~generation ~path ~hour ~int ~str acc =
  let acc = int ctx "GENERATION" generation acc in
  let acc = int ctx "HANDLE" ino acc in
  let acc = str ctx "PATH" path acc in
  let acc = str ctx "app_domain" "DisCFS" acc in
  int ctx "hour" hour acc

(* The width of [string_of_int n], sign included. *)
let int_width n =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

(* [string_of_int n] written at [pos]; returns the position after it.
   Digits come from the negative-safe remainder, so [min_int] works. *)
let rec put_digits b n i =
  Bytes.set b i (Char.unsafe_chr (48 + abs (n mod 10)));
  if n <= -10 || n >= 10 then put_digits b (n / 10) (i - 1)

let put_int b pos n =
  let w = int_width n in
  if n < 0 then Bytes.set b pos '-';
  put_digits b n (pos + w - 1);
  pos + w

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* "\000name=" at [pos]; returns the position of the value. *)
let put_name b pos name =
  Bytes.set b pos '\000';
  let pos = put_string b (pos + 1) name in
  Bytes.set b pos '=';
  pos + 1

(* Consed in fold order, so the list runs from [hour] back to
   [GENERATION]; KeyNote looks attributes up by name. *)
let attributes ~ino ~generation ~path ~hour =
  fold_attributes () ~ino ~generation ~path ~hour
    ~int:(fun () k n acc -> (k, string_of_int n) :: acc)
    ~str:(fun () k v acc -> (k, v) :: acc)
    []

let key ~epoch ~peer ~ino ~generation ~path ~hour =
  let len =
    fold_attributes () ~ino ~generation ~path ~hour
      ~int:(fun () k n len -> len + 2 + String.length k + int_width n)
      ~str:(fun () k v len -> len + 2 + String.length k + String.length v)
      (int_width epoch + 1 + int_width peer)
  in
  let b = Bytes.create len in
  let pos = put_int b 0 epoch in
  Bytes.set b pos '\000';
  let pos = put_int b (pos + 1) peer in
  ignore
    (fold_attributes b ~ino ~generation ~path ~hour
       ~int:(fun b k n pos -> put_int b (put_name b pos k) n)
       ~str:(fun b k v pos -> put_string b (put_name b pos k) v)
       pos);
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
    if Lru.replace t.entries key level > 0 then
      Simnet.Stats.incr t.stats "cache.policy.evictions"
  end

let flush t =
  Lru.clear t.entries;
  (* Epoch-keyed entries can never be refilled under their old keys
     after a flush (the epoch changed), so surviving check windows
     are dead — drop them rather than let them pair across the flush. *)
  Race.wipe t.race

let hits t = t.hits
let misses t = t.misses
let size t = Lru.length t.entries
let capacity t = Lru.capacity t.entries
