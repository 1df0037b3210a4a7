module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats

exception Io_error of string

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  nblocks : int;
  block_size : int;
  store : (int, bytes) Hashtbl.t; (* lazily allocated blocks *)
  mutable head : int; (* last block under the head, for the seek model *)
  mutable fault : Simnet.Fault.t option;
  mutable trace : Trace.t;
  cache : Bcache.t;
  readahead : int;
  mutable last_req : int; (* last explicitly requested block, for sequential detection *)
}

let create ?(cache_blocks = 0) ?(readahead = 8) ~clock ~cost ~stats ~nblocks ~block_size () =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Blockdev.create";
  if readahead < 0 then invalid_arg "Blockdev.create: negative readahead";
  {
    clock;
    cost;
    stats;
    nblocks;
    block_size;
    store = Hashtbl.create 1024;
    head = 0;
    fault = None;
    trace = Trace.null;
    cache = Bcache.create ~capacity:cache_blocks;
    readahead;
    last_req = -2;
  }

let set_fault t f =
  (match f with Some f -> Simnet.Fault.set_trace f t.trace | None -> ());
  t.fault <- f

let trace t = t.trace

let set_trace t trace =
  t.trace <- trace;
  match t.fault with Some f -> Simnet.Fault.set_trace f trace | None -> ()

let block_size t = t.block_size
let nblocks t = t.nblocks
let clock t = t.clock
let stats t = t.stats
let bcache t = t.cache

let charge t i =
  let c = t.cost in
  if i <> t.head + 1 && i <> t.head then begin
    Clock.advance t.clock c.Cost.disk_seek;
    Stats.incr t.stats "disk.seeks"
  end;
  Clock.advance t.clock
    (c.Cost.disk_op_overhead +. (float_of_int t.block_size /. c.Cost.disk_transfer_bps));
  t.head <- i

let check t i = if i < 0 || i >= t.nblocks then invalid_arg "Blockdev: block out of range"

(* Consult the fault script for this operation; returns the fault to
   apply, if any. Reads can fail or return corrupted data; writes can
   fail (the block is then not updated, as if the controller errored
   before commit). *)
let disk_fault t =
  match t.fault with None -> None | Some f -> Simnet.Fault.disk_decide f

(* The stored block itself. The store never writes a block in place
   ([write], [poke] and [restore] replace it with a private copy of
   the caller's bytes), so the cache can hold the very same block and
   a fill copies nothing. *)
let raw_block t i =
  match Hashtbl.find_opt t.store i with
  | Some b -> b
  | None -> Bytes.make t.block_size '\000'

(* Every fill — demand, prefetch or write-through — may displace the
   LRU block; count whatever the cache evicted. *)
let fill t ~generation i data =
  let before = Bcache.evictions t.cache in
  Bcache.insert_if t.cache ~generation i data;
  let evicted = Bcache.evictions t.cache - before in
  if evicted > 0 then Stats.add t.stats "bcache.evictions" evicted

(* Speculative sequential prefetch after a miss at [i]: the next
   [readahead - 1] uncached blocks ride the same disk request,
   paying transfer time only (the head is already positioned and the
   op overhead was charged by the demand read). Prefetched data is
   not fault-checked — a prefetch is not an acknowledged I/O, and a
   block the script would have failed is simply re-read on demand. *)
let prefetch t i =
  if t.readahead > 1 && Bcache.capacity t.cache > 0 then begin
    let limit = min (t.nblocks - 1) (i + t.readahead - 1) in
    let j = ref (i + 1) in
    let fetched = ref 0 in
    while !j <= limit do
      if not (Bcache.mem t.cache !j) then begin
        (* The probe above decided to fill; the transfer below yields.
           Guard the fill against a cache drop (crash) in between. *)
        let gen = Bcache.generation t.cache in
        Clock.advance t.clock (float_of_int t.block_size /. t.cost.Cost.disk_transfer_bps);
        fill t ~generation:gen !j (raw_block t !j);
        t.head <- !j;
        incr fetched
      end
      else j := limit (* a cached block ends the contiguous run *);
      incr j
    done;
    if !fetched > 0 then begin
      Stats.add t.stats "bcache.readahead_blocks" !fetched;
      Trace.instant t.trace "disk.readahead"
    end
  end

(* Returns a block shared with the store and the cache (or, after a
   corrupted transfer, the caller's own damaged copy): [read] copies
   it once on the way out, [read_shared] hands it over read-only. *)
let read_with t i =
  check t i;
  let sequential = i = t.last_req + 1 in
  t.last_req <- i;
  let gen = Bcache.generation t.cache in
  match Bcache.find_shared t.cache i with
  | Some data ->
    (* Buffer-cache hit: served from server memory — no head motion,
       no virtual time, no disk span. *)
    Stats.incr t.stats "bcache.hits";
    data
  | None ->
    if Bcache.capacity t.cache > 0 then Stats.incr t.stats "bcache.misses";
    let data =
      Trace.span t.trace "disk.read" @@ fun () ->
      charge t i;
      Stats.incr t.stats "disk.reads";
      let data = raw_block t i in
      match disk_fault t with
      | Some Simnet.Fault.Fail_read ->
        Stats.incr t.stats "disk.io_errors";
        raise (Io_error (Printf.sprintf "read error at block %d" i))
      | Some Simnet.Fault.Corrupt_read ->
        Stats.incr t.stats "disk.corruptions";
        (match t.fault with
        | Some f -> Bytes.of_string (Simnet.Fault.corrupt_bytes f (Bytes.to_string data))
        | None -> data)
      | Some Simnet.Fault.Fail_write | None ->
        (* Only a clean transfer is worth caching — and only into the
           incarnation whose miss started it: the disk charge above
           yields, and a crash during it drops the cache, which must
           then boot cold instead of inheriting this block. *)
        fill t ~generation:gen i data;
        data
    in
    if sequential then prefetch t i;
    data

let read t i = Bytes.copy (read_with t i)
let read_shared t i = read_with t i

(* Store [b] as block [i], which the device now owns: write-through,
   the platter is updated (and charged) first, the cache second. *)
let commit t i b =
  let gen = Bcache.generation t.cache in
  Trace.span t.trace "disk.write" @@ fun () ->
  charge t i;
  Stats.incr t.stats "disk.writes";
  (match disk_fault t with
  | Some Simnet.Fault.Fail_write ->
    Stats.incr t.stats "disk.io_errors";
    raise (Io_error (Printf.sprintf "write error at block %d" i))
  | Some Simnet.Fault.Fail_read | Some Simnet.Fault.Corrupt_read | None -> ());
  Hashtbl.replace t.store i b;
  (* Write-through: the cache is updated only after the device
     committed, so a failed write leaves both on the old value and
     the cache can never hold data the disk lost. Store and cache
     share the one block. The generation guard keeps a write that
     straddled a crash from warming the new incarnation's cold cache
     (the store update stands — the controller had the data — but
     the old process's memory is gone). *)
  fill t ~generation:gen i b

let write t i b =
  check t i;
  if Bytes.length b <> t.block_size then invalid_arg "Blockdev.write: bad block length";
  commit t i (Bytes.copy b)

(* The one write core for ranges: the new block is built once. A
   whole-block range needs nothing of the old block; a partial one is
   a read-modify-write, and its read is accounted like any read (hit
   or miss, disk charge, sequential prefetch). *)
let write_sub t i ~off src ~src_off ~len =
  check t i;
  if off < 0 || len < 0 || off + len > t.block_size || src_off < 0
     || src_off > String.length src - len
  then invalid_arg "Blockdev.write_sub: bad range";
  let b =
    if len = t.block_size then Bytes.create t.block_size else Bytes.copy (read_with t i)
  in
  Bytes.blit_string src src_off b off len;
  commit t i b

let drop_cache t = Bcache.drop t.cache

let snapshot t =
  Hashtbl.fold (fun i b acc -> (i, Bytes.copy b) :: acc) t.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let restore t blocks =
  Hashtbl.reset t.store;
  Bcache.drop t.cache;
  List.iter
    (fun (i, b) ->
      check t i;
      if Bytes.length b <> t.block_size then invalid_arg "Blockdev.restore: bad block length";
      Hashtbl.replace t.store i (Bytes.copy b))
    blocks

let poke t i b =
  check t i;
  if Bytes.length b <> t.block_size then invalid_arg "Blockdev.poke: bad block length";
  Hashtbl.replace t.store i (Bytes.copy b);
  (* Keep the cache coherent with the out-of-band update. *)
  Bcache.remove t.cache i

