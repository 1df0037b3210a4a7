(* Discrete-event scheduler: a binary min-heap of timed events with a
   (time, seq) key so simultaneous events run in the order they were
   scheduled, and cooperative processes built on effect handlers. A
   process that "spends" virtual time does so by performing an
   effect; the scheduler parks its continuation in the heap and runs
   whatever comes next. Installing the clock's advance hook turns
   every in-line [Clock.advance] in the lower layers (disk seeks, ESP
   seal costs, wire latency) into such a sleep automatically, so the
   entire existing cost model becomes concurrency-aware without
   touching the call sites.

   Every cost charge is an event, so the event path allocates next to
   nothing: the heap keeps its keys in flat arrays (no boxed time, no
   event record), a sleep performs one constant effect whose duration
   travels through a float cell, the wake-up is one small [Wake]
   entry, and the loop restores its state with [match ... with
   exception] rather than [Fun.protect] closures.

   Determinism: the heap order is total — ties broken by allocation
   sequence number — and there is no wall-clock input and no
   unordered container iteration anywhere in the loop, so a given
   program produces one event order, always. The lint pass holds the
   module to that: discfs-lint: require strict-determinism

   Tie perturbation: with a seed installed, same-timestamp events are
   ordered by a splitmix64 hash of (seed, seq) before the seq
   tie-break — a different but equally total and reproducible order
   per seed. The race-exploration harness uses this to shake out
   interleaving bugs hiding behind the default allocation order. *)

open Effect.Deep

(* What an event does when it runs: a scheduled thunk or one of the
   scheduler's own wake-ups. *)
type entry =
  | Free (* an empty heap slot *)
  | Call of (unit -> unit)
  | Wake of int * (unit, unit) continuation (* a sleeper's pid and continuation *)
  | Timeout : 'a mailbox -> entry (* live while its seq is the mailbox's [timer] *)
  | Deliver : 'a mailbox -> entry (* hands the [Woken] value to the waiter *)

and 'a mailbox = {
  items : 'a Queue.t;
  mutable waiter : 'a waiter;
  mutable timer : int; (* seq of the waiter's live timeout, or -1 *)
}

and 'a waiter =
  | Idle
  | Parked of int * ('a option, unit) continuation
  | Woken of int * ('a option, unit) continuation * 'a (* delivery scheduled *)

type t = {
  clock : Clock.t;
  (* The heap: slot i holds the key (times.(i), tie_hi.(i), tie_lo.(i),
     seqs.(i)) and the entry entries.(i). The 64-bit tie is split
     into a signed high and an unsigned low half so that comparing
     the halves in turn is the signed 64-bit comparison, on ints. *)
  mutable times : Float.Array.t;
  mutable tie_hi : int array;
  mutable tie_lo : int array;
  mutable seqs : int array;
  mutable entries : entry array;
  mutable size : int;
  wait : Float.Array.t; (* one cell: the duration of the pending Sleep or Park *)
  mutable next_seq : int;
  mutable next_pid : int;
  mutable current_pid : int; (* 0 = not inside a spawned process *)
  mutable in_process : bool;
  mutable running : bool;
  mutable events_run : int;
  mutable tie_seed : int64 option;
  mutable probe : (float -> int -> unit) option;
}

(* --- binary heap keyed (time, tie, seq) ------------------------------ *)

(* The heap's arrays are only ever indexed below [size], which is at
   most their length, so the accesses below skip the bounds check. *)
let time_at t i = Float.Array.unsafe_get t.times i
let hi_at t i = Array.unsafe_get t.tie_hi i
let lo_at t i = Array.unsafe_get t.tie_lo i
let seq_at t i = Array.unsafe_get t.seqs i

(* Does slot [j] run before the key (time, hi, lo, seq)? Inlined so
   that [time] is never boxed. *)
let[@inline] before t j time hi lo seq =
  let tj = time_at t j in
  tj < time
  || tj = time
     &&
     let hj = hi_at t j in
     hj < hi || (hj = hi && (lo_at t j < lo || (lo_at t j = lo && seq_at t j < seq)))

let[@inline] set t i time hi lo seq entry =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.tie_hi i hi;
  Array.unsafe_set t.tie_lo i lo;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.entries i entry

let move t src dst =
  set t dst (time_at t src) (hi_at t src) (lo_at t src) (seq_at t src)
    (Array.unsafe_get t.entries src)

let grow t =
  let n = Array.length t.entries in
  let times = Float.Array.make (2 * n) 0.0 in
  Float.Array.blit t.times 0 times 0 n;
  t.times <- times;
  let widen a = Array.append a (Array.make n 0) in
  t.tie_hi <- widen t.tie_hi;
  t.tie_lo <- widen t.tie_lo;
  t.seqs <- widen t.seqs;
  t.entries <- Array.append t.entries (Array.make n Free)

(* splitmix64 finalizer: decorrelates consecutive seq values into
   independent 64-bit tie keys. Pure int64 arithmetic, no state. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Add [entry] keyed (time, tie, next seq): walk the hole up from the
   end past every parent that runs later, then fill it. Returns the
   seq. Inlined so that [time] stays unboxed. *)
let[@inline] insert t time entry =
  if t.size = Array.length t.entries then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tie =
    match t.tie_seed with
    | None -> 0L
    | Some seed -> mix64 (Int64.add seed (Int64.mul (Int64.of_int seq) 0x9e3779b97f4a7c15L))
  in
  let hi = Int64.to_int (Int64.shift_right tie 32) and lo = Int64.to_int tie land 0xffff_ffff in
  let i = ref t.size in
  t.size <- !i + 1;
  while !i > 0 && not (before t ((!i - 1) / 2) time hi lo seq) do
    let parent = (!i - 1) / 2 in
    move t parent !i;
    i := parent
  done;
  set t !i time hi lo seq entry;
  seq

(* Drop the root, the caller having read it: walk a hole down from
   the root past every child that runs before the last slot's key,
   then move the last slot into it. *)
let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = time_at t last and hi = hi_at t last and lo = lo_at t last in
    let seq = seq_at t last and entry = t.entries.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (time_at t l) (hi_at t l) (lo_at t l) (seq_at t l) then r else l
        in
        if before t c time hi lo seq then begin
          move t c !i;
          i := c
        end
        else sifting := false
      end
    done;
    set t !i time hi lo seq entry
  end;
  t.entries.(last) <- Free

let create ~clock =
  {
    clock;
    times = Float.Array.make 64 0.0;
    tie_hi = Array.make 64 0;
    tie_lo = Array.make 64 0;
    seqs = Array.make 64 0;
    entries = Array.make 64 Free;
    size = 0;
    wait = Float.Array.make 1 0.0;
    next_seq = 0;
    next_pid = 0;
    current_pid = 0;
    in_process = false;
    running = false;
    events_run = 0;
    tie_seed = None;
    probe = None;
  }

let set_tie_seed t seed = t.tie_seed <- seed
let tie_seed t = t.tie_seed

(* --- scheduling ------------------------------------------------------ *)

let check_time fn t time =
  if Float.is_nan time then invalid_arg (fn ^ ": NaN time");
  if time < Clock.now t.clock then invalid_arg (fn ^ ": time in the past")

let check_delay fn dt =
  if Float.is_nan dt then invalid_arg (fn ^ ": NaN dt");
  if dt < 0.0 then invalid_arg (fn ^ ": negative dt")

let schedule_at t time thunk =
  check_time "Sched.schedule_at" t time;
  ignore (insert t time (Call thunk))

let schedule_after t dt thunk =
  check_delay "Sched.schedule_after" dt;
  schedule_at t (Clock.now t.clock +. dt) thunk

let clock t = t.clock
let in_process t = t.in_process
let current_pid t = t.current_pid
let events_run t = t.events_run
let set_probe t probe = t.probe <- probe

(* --- cooperative processes over effects ------------------------------ *)

(* Both carry their duration in the scheduler's [wait] cell, which is
   why a process must sleep and take on the scheduler that runs it. *)
type _ Effect.t += Sleep : unit Effect.t | Park : 'a mailbox -> 'a option Effect.t

(* Each spawned process carries a stable pid across suspensions: its
   first slice and every resumption run [f a b] under [as_pid], which
   sets [current_pid] for the duration of the slice and restores the
   previous value on the way out, exception or not. pid 0 means "not a spawned process" (setup
   code, bare scheduled thunks). *)
let as_pid t pid f a b =
  let saved = t.current_pid in
  t.current_pid <- pid;
  match f a b with
  | () -> t.current_pid <- saved
  | exception e ->
    t.current_pid <- saved;
    raise e

let resume t pid k v = as_pid t pid continue k v

(* The handler a process runs under, built once at its start: a sleep
   parks the continuation as a [Wake] entry through the preallocated
   [on_sleep]; a mailbox wait records the waiter and its timeout. *)
let process_handler t pid =
  let on_sleep =
    Some
      (fun k ->
        ignore (insert t (Clock.now t.clock +. Float.Array.unsafe_get t.wait 0) (Wake (pid, k))))
  in
  {
    retc = ignore;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> on_sleep
        | Park mb ->
          Some
            (fun k ->
              mb.waiter <- Parked (pid, k);
              mb.timer <-
                insert t (Clock.now t.clock +. Float.Array.unsafe_get t.wait 0) (Timeout mb))
        | _ -> None);
  }

let start t pid f = as_pid t pid (fun f handler -> match_with f () handler) f (process_handler t pid)

let spawn_at t time f =
  let pid = t.next_pid + 1 in
  t.next_pid <- pid;
  schedule_at t time (fun () -> start t pid f)

let spawn t f = spawn_at t (Clock.now t.clock) f

let sleep t dt =
  check_delay "Sched.sleep" dt;
  Float.Array.unsafe_set t.wait 0 dt;
  Effect.perform Sleep

(* --- the event loop -------------------------------------------------- *)

let live entry seq =
  match entry with
  | Timeout mb -> mb.timer = seq
  | Call _ | Wake _ | Deliver _ -> true
  | Free -> false

let dispatch t = function
  | Call thunk -> thunk ()
  | Wake (pid, k) -> resume t pid k ()
  | Timeout mb -> (
    match mb.waiter with
    | Parked (pid, k) ->
      mb.waiter <- Idle;
      mb.timer <- -1;
      resume t pid k None
    | Idle | Woken _ -> () (* a push beat the timeout; its delivery is queued *))
  | Deliver mb -> (
    match mb.waiter with
    | Woken (pid, k, v) ->
      mb.waiter <- Idle;
      mb.timer <- -1;
      resume t pid k (Some v)
    | Idle | Parked _ -> ())
  | Free -> ()

(* Pop the earliest event and run it, unless it is a superseded
   timeout. *)
let run_next t =
  let time = Float.Array.unsafe_get t.times 0 in
  let seq = t.seqs.(0) and entry = t.entries.(0) in
  remove_root t;
  if live entry seq then begin
    Clock.set t.clock time;
    t.events_run <- t.events_run + 1;
    (match t.probe with Some p -> p time seq | None -> ());
    t.in_process <- true;
    match dispatch t entry with
    | () -> t.in_process <- false
    | exception e ->
      t.in_process <- false;
      raise e
  end

let run t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  match
    while t.size > 0 do
      run_next t
    done
  with
  | () -> t.running <- false
  | exception e ->
    t.running <- false;
    raise e

(* The clock hook: inside a process, a cost charge becomes a sleep so
   other processes can run during it; outside (setup code, serial
   mode after [attach_clock]), it is an ordinary in-line advance. *)
let attach_clock t =
  Clock.set_advance_hook t.clock
    (Some
       (fun dt ->
         if t.in_process then sleep t dt
         else Clock.set t.clock (Clock.now t.clock +. dt)))

(* --- mailbox: one-consumer FIFO with timed receive -------------------- *)

module Mailbox = struct
  type 'a t = 'a mailbox

  let create () = { items = Queue.create (); waiter = Idle; timer = -1 }

  let push sched mb x =
    match mb.waiter with
    | Parked (pid, k) ->
      (* Resolve now (so the timeout no longer wakes the waiter) but
         run the consumer as its own event, preserving FIFO among
         same-time wakeups. *)
      mb.waiter <- Woken (pid, k, x);
      ignore (insert sched (Clock.now sched.clock) (Deliver mb))
    | Idle | Woken _ -> Queue.push x mb.items

  let take sched mb ~timeout =
    if Float.is_nan timeout then invalid_arg "Sched.Mailbox.take: NaN timeout";
    match Queue.take_opt mb.items with
    | Some _ as v -> v
    | None ->
      if timeout <= 0.0 then None
      else begin
        (match mb.waiter with
        | Idle -> ()
        | Parked _ | Woken _ -> invalid_arg "Sched.Mailbox.take: already a waiter");
        Float.Array.unsafe_set sched.wait 0 timeout;
        Effect.perform (Park mb)
      end
end
