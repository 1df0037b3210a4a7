(* Discrete-event scheduler: a binary min-heap of timed events with a
   (time, seq) key so simultaneous events run in the order they were
   scheduled, and cooperative processes built on effect handlers. A
   process that "spends" virtual time does so by performing a Suspend
   effect; the scheduler parks its continuation in the heap and runs
   whatever comes next. Installing the clock's advance hook turns
   every in-line [Clock.advance] in the lower layers (disk seeks, ESP
   seal costs, wire latency) into such a sleep automatically, so the
   entire existing cost model becomes concurrency-aware without
   touching the call sites.

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

type event = {
  time : float;
  seq : int;
  tie : int64; (* 0L unless a tie seed is installed at schedule time *)
  mutable cancelled : bool;
  thunk : unit -> unit;
}

type t = {
  clock : Clock.t;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
  mutable next_pid : int;
  mutable current_pid : int; (* 0 = not inside a spawned process *)
  mutable in_process : bool;
  mutable running : bool;
  mutable events_run : int;
  mutable tie_seed : int64 option;
  mutable probe : (float -> int -> unit) option;
}

type handle = event

(* --- binary heap keyed (time, tie, seq) ------------------------------ *)

let earlier a b =
  a.time < b.time
  || (a.time = b.time
     && (a.tie < b.tie || (a.tie = b.tie && a.seq < b.seq)))

(* splitmix64 finalizer: decorrelates consecutive seq values into
   independent 64-bit tie keys. Pure int64 arithmetic, no state. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let tie_of t seq =
  match t.tie_seed with
  | None -> 0L
  | Some seed -> mix64 (Int64.add seed (Int64.mul (Int64.of_int seq) 0x9e3779b97f4a7c15L))

let dummy = { time = 0.0; seq = -1; tie = 0L; cancelled = true; thunk = ignore }

let create ~clock =
  {
    clock;
    heap = Array.make 64 dummy;
    size = 0;
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

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  if t.size > 0 then sift_down t 0;
  top

(* --- scheduling ------------------------------------------------------ *)

let schedule_at t time thunk =
  if time < Clock.now t.clock then
    invalid_arg "Sched.schedule_at: time in the past";
  let seq = t.next_seq in
  let ev = { time; seq; tie = tie_of t seq; cancelled = false; thunk } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

let schedule_after t dt thunk =
  if dt < 0.0 then invalid_arg "Sched.schedule_after: negative dt";
  schedule_at t (Clock.now t.clock +. dt) thunk

let cancel ev = ev.cancelled <- true
let clock t = t.clock
let in_process t = t.in_process
let current_pid t = t.current_pid
let events_run t = t.events_run
let set_probe t probe = t.probe <- probe

(* --- cooperative processes over effects ------------------------------ *)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Each spawned process carries a stable pid across suspensions: the
   initial entry and every resume closure set [current_pid] for the
   duration of the slice, restoring the previous value on exit (so
   nested resumes — a process resuming another in-line — unwind
   correctly). pid 0 means "not a spawned process" (setup code, bare
   scheduled thunks). *)
let with_pid t pid f =
  let saved = t.current_pid in
  t.current_pid <- pid;
  Fun.protect ~finally:(fun () -> t.current_pid <- saved) f

let process_handler t pid =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                register (fun v -> with_pid t pid (fun () -> Effect.Deep.continue k v)))
        | _ -> None);
  }

let spawn_at t time f =
  let pid = t.next_pid + 1 in
  t.next_pid <- pid;
  schedule_at t time (fun () ->
      with_pid t pid (fun () -> Effect.Deep.match_with f () (process_handler t pid)))

let spawn_after t dt f =
  if dt < 0.0 then invalid_arg "Sched.spawn_after: negative dt";
  spawn_at t (Clock.now t.clock +. dt) f

let spawn t f = ignore (spawn_at t (Clock.now t.clock) f)

let suspend register = Effect.perform (Suspend register)

let sleep t dt =
  if dt < 0.0 then invalid_arg "Sched.sleep: negative dt";
  suspend (fun resume -> ignore (schedule_after t dt resume))

(* --- the event loop -------------------------------------------------- *)

let step t ev =
  Clock.set t.clock ev.time;
  t.events_run <- t.events_run + 1;
  (match t.probe with Some p -> p ev.time ev.seq | None -> ());
  t.in_process <- true;
  Fun.protect ~finally:(fun () -> t.in_process <- false) ev.thunk

let run t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      while t.size > 0 do
        let ev = pop t in
        if not ev.cancelled then step t ev
      done)

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
  type 'a t = {
    items : 'a Queue.t;
    mutable waiter : ('a option -> unit) option;
  }

  let create () = { items = Queue.create (); waiter = None }

  let push sched mb x =
    match mb.waiter with
    | Some resume ->
        (* Resolve now (so the timer can no longer fire) but run the
           consumer as its own event, preserving FIFO among same-time
           wakeups. *)
        mb.waiter <- None;
        ignore (schedule_after sched 0.0 (fun () -> resume (Some x)))
    | None -> Queue.push x mb.items

  let take sched mb ~timeout =
    match Queue.take_opt mb.items with
    | Some v -> Some v
    | None ->
        if timeout <= 0.0 then None
        else
          suspend (fun resume ->
              (match mb.waiter with
              | Some _ -> invalid_arg "Sched.Mailbox.take: already a waiter"
              | None -> ());
              let timer =
                schedule_after sched timeout (fun () ->
                    match mb.waiter with
                    | Some w ->
                        mb.waiter <- None;
                        w None
                    | None -> ())
              in
              mb.waiter <-
                Some
                  (fun v ->
                    cancel timer;
                    resume v))
end
