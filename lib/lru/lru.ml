(* A hash table over the nodes of a circular recency list: [next] runs
   from [oldest] towards the newest, which is [oldest.prev]. A node out
   of the list links to itself if it was alone in it, or was never in. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable oldest : ('k, 'v) node option;
  mutable capacity : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { table = Hashtbl.create (max 16 capacity); oldest = None; capacity }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let mem t k = Hashtbl.mem t.table k

let unlink t n =
  if n.next == n then t.oldest <- None
  else begin
    n.prev.next <- n.next;
    n.next.prev <- n.prev;
    match t.oldest with Some o when o == n -> t.oldest <- Some n.next | _ -> ()
  end

let push_newest t n =
  match t.oldest with
  | None -> t.oldest <- Some n (* n is alone, so it links to itself *)
  | Some o ->
    n.prev <- o.prev;
    n.next <- o;
    o.prev.next <- n;
    o.prev <- n

let rec evict t n =
  match t.oldest with
  | Some o when Hashtbl.length t.table > t.capacity ->
    unlink t o;
    Hashtbl.remove t.table o.key;
    evict t (n + 1)
  | _ -> n

let find t k =
  match Hashtbl.find t.table k with
  | n ->
    unlink t n;
    push_newest t n;
    Some n.value
  | exception Not_found -> None

let replace t k v =
  match Hashtbl.find t.table k with
  | n ->
    n.value <- v;
    unlink t n;
    push_newest t n;
    0
  | exception Not_found ->
    let rec n = { key = k; value = v; prev = n; next = n } in
    Hashtbl.add t.table k n;
    push_newest t n;
    evict t 0

let remove t k =
  match Hashtbl.find t.table k with
  | n ->
    unlink t n;
    Hashtbl.remove t.table k
  | exception Not_found -> ()

let set_capacity t capacity =
  if capacity < 0 then invalid_arg "Lru.set_capacity: negative capacity";
  t.capacity <- capacity;
  evict t 0

let clear t =
  Hashtbl.reset t.table;
  t.oldest <- None

let bindings t =
  let rec walk o n acc =
    let acc = (n.key, n.value) :: acc in
    if n == o then acc else walk o n.prev acc
  in
  match t.oldest with None -> [] | Some o -> walk o o.prev []
