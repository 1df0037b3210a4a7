(* The discrete-event concurrency layer: scheduler determinism and
   replay, the busy-until link serialization, and the RPC server's
   bounded request queue — worker pool, per-client FIFO fairness,
   retransmit coalescing and queue-full backpressure. *)

module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Link = Simnet.Link
module Cost = Simnet.Cost
module Sched = Simnet.Sched
module Rpc = Oncrpc.Rpc
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client

let feq = Alcotest.(check (float 1e-9))

(* --- scheduler core --------------------------------------------------- *)

let test_event_order () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  ignore (Sched.schedule_at s 2.0 (mark "last"));
  ignore (Sched.schedule_at s 1.0 (mark "tie1"));
  ignore (Sched.schedule_at s 1.0 (mark "tie2"));
  let doomed = Sched.schedule_at s 1.5 (mark "cancelled") in
  Sched.cancel doomed;
  ignore (Sched.schedule_at s 0.5 (mark "first"));
  Sched.run s;
  Alcotest.(check (list string))
    "time ascending, FIFO on ties, cancelled skipped"
    [ "first"; "tie1"; "tie2"; "last" ]
    (List.rev !log);
  feq "clock follows the last event" 2.0 (Clock.now clock);
  Alcotest.(check int) "events counted" 4 (Sched.events_run s);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sched.schedule_at: time in the past") (fun () ->
      ignore (Sched.schedule_at s 1.0 ignore))

let test_clock_hook_makes_advance_a_sleep () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let log = ref [] in
  let mark tag = log := (tag, Clock.now clock) :: !log in
  Sched.spawn s (fun () ->
      mark "a0";
      (* inside a process, a plain cost charge suspends cooperatively *)
      Clock.advance clock 2.0;
      mark "a1");
  Sched.spawn s (fun () ->
      mark "b0";
      Sched.sleep s 1.0;
      mark "b1");
  Sched.run s;
  Alcotest.(check (list (pair string (float 1e-9))))
    "processes overlap in virtual time"
    [ ("a0", 0.0); ("b0", 0.0); ("b1", 1.0); ("a1", 2.0) ]
    (List.rev !log);
  (* outside any process the hook falls back to an in-line advance *)
  Clock.advance clock 1.5;
  feq "serial advance still works" 3.5 (Clock.now clock)

let test_mailbox_delivery_and_timeout () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let mb = Sched.Mailbox.create () in
  let log = ref [] in
  (* discfs-lint: allow races "test log: only the consumer process appends; the test reads it after Sched.run returns" *)
  Sched.spawn s (fun () ->
      (match Sched.Mailbox.take s mb ~timeout:5.0 with
      | Some v -> log := (Printf.sprintf "got:%s" v, Clock.now clock) :: !log
      | None -> Alcotest.fail "expected a value");
      match Sched.Mailbox.take s mb ~timeout:1.0 with
      | Some _ -> Alcotest.fail "expected a timeout"
      | None -> log := ("timeout", Clock.now clock) :: !log);
  Sched.spawn s (fun () ->
      Sched.sleep s 2.0;
      Sched.Mailbox.push s mb "hello");
  Sched.run s;
  Alcotest.(check (list (pair string (float 1e-9))))
    "push wakes the waiter; timeout fires at the deadline"
    [ ("got:hello", 2.0); ("timeout", 3.0) ]
    (List.rev !log);
  (* a push with nobody waiting queues and is drained immediately *)
  Sched.Mailbox.push s mb "queued";
  Sched.spawn s (fun () ->
      Alcotest.(check (option string))
        "queued value needs no wait" (Some "queued")
        (Sched.Mailbox.take s mb ~timeout:0.5));
  Sched.run s

(* A NaN compares false both ways, so one NaN key in the heap breaks
   its invariant and other events run late, with the clock ahead of
   them. Every entry point that takes a time or a duration refuses
   NaN; infinity stays a legal time. *)
let test_nan_time_rejected () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  let ran = ref [] in
  List.iter
    (fun time ->
      match Sched.schedule_at s time (fun () -> ran := (time, Clock.now clock) :: !ran) with
      | _ -> ()
      | exception Invalid_argument _ when Float.is_nan time -> ())
    [ 3.0; Float.nan; 1.0; 0.5; 2.0; 0.7; 4.0; 0.1 ];
  Sched.run s;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "the other events run in time order, each at its own time"
    [ (0.1, 0.1); (0.5, 0.5); (0.7, 0.7); (1.0, 1.0); (2.0, 2.0); (3.0, 3.0); (4.0, 4.0) ]
    (List.rev !ran);
  let nan_rejected name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted NaN" name
    | exception Invalid_argument _ -> ()
  in
  nan_rejected "Clock.advance" (fun () -> Clock.advance clock Float.nan);
  nan_rejected "Clock.set" (fun () -> Clock.set clock Float.nan);
  feq "the clock did not move" 4.0 (Clock.now clock);
  nan_rejected "Sched.schedule_after" (fun () -> ignore (Sched.schedule_after s Float.nan ignore));
  nan_rejected "Sched.spawn_at" (fun () -> ignore (Sched.spawn_at s Float.nan ignore));
  nan_rejected "Sched.spawn_after" (fun () -> ignore (Sched.spawn_after s Float.nan ignore));
  Sched.attach_clock s;
  let mb = Sched.Mailbox.create () and finished = Sched.Mailbox.create () in
  Sched.spawn s (fun () ->
      Alcotest.check_raises "sleep" (Invalid_argument "Sched.sleep: NaN dt") (fun () ->
          Sched.sleep s Float.nan);
      Alcotest.check_raises "advance" (Invalid_argument "Clock.advance: NaN dt") (fun () ->
          Clock.advance clock Float.nan);
      Alcotest.check_raises "take" (Invalid_argument "Sched.Mailbox.take: NaN timeout") (fun () ->
          ignore (Sched.Mailbox.take s mb ~timeout:Float.nan));
      Sched.Mailbox.push s finished ());
  Sched.run s;
  Alcotest.(check (option unit)) "in-process waits refuse NaN" (Some ())
    (Sched.Mailbox.take s finished ~timeout:0.0);
  feq "and the clock is still finite" 4.0 (Clock.now clock);
  let at_infinity = ref false in
  ignore (Sched.schedule_at s Float.infinity (fun () -> at_infinity := true));
  Sched.run s;
  Alcotest.(check bool) "infinity is a legal time" true !at_infinity

(* An exception escaping a process aborts [run]; the scheduler's
   per-slice state is restored on the way out, so [run] can resume
   the events still in the heap. *)
let test_exception_aborts_run () =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let woke = Sched.Mailbox.create () in
  Sched.spawn s (fun () ->
      Sched.sleep s 1.0;
      failwith "boom");
  Sched.spawn s (fun () ->
      Clock.advance clock 2.0;
      Sched.Mailbox.push s woke ());
  Alcotest.check_raises "the process's exception aborts run" (Failure "boom") (fun () ->
      Sched.run s);
  Alcotest.(check bool) "not in a process afterwards" false (Sched.in_process s);
  Alcotest.(check int) "no current pid afterwards" 0 (Sched.current_pid s);
  Sched.run s;
  Alcotest.(check (option unit)) "a second run drains the rest" (Some ())
    (Sched.Mailbox.take s woke ~timeout:0.0);
  feq "at the survivor's wake time" 2.0 (Clock.now clock)

(* --- the scheduler against a reference model -------------------------- *)

(* A random program over the scheduler's surface: timed thunks (some
   cancelled at setup or later, some scheduling a follow-up with
   [schedule_after]), sleepers that wait with [sleep] or a hooked
   [Clock.advance], and one mailbox with a consumer that takes with
   timeouts and thunks that push into it; with or without a tie seed.
   It runs on [Sched] and on a reference that keeps its events in a
   list sorted by (time, tie, seq); the event journal and the log of
   every wake-up, with its time, must match. *)
type cancel = Keep | Cancel_now | Cancel_at of float

type op =
  | At of float * cancel * float option (* time, cancellation, follow-up delay *)
  | Sleeper of float * (float * bool) list (* start, sleeps (dt, through the clock) *)
  | Push of float

type program = {
  seed : int64 option;
  ops : op list;
  consumer : (float * float list) option; (* start, take timeouts *)
}

let show_program p =
  let f = Printf.sprintf "%g" in
  let op = function
    | At (t, c, after) ->
      Printf.sprintf "At %g%s%s" t
        (match c with Keep -> "" | Cancel_now -> " cancel" | Cancel_at c -> " cancel@" ^ f c)
        (match after with None -> "" | Some d -> " then+" ^ f d)
    | Sleeper (t, ds) ->
      Printf.sprintf "Sleeper %g [%s]" t
        (String.concat ";" (List.map (fun (d, c) -> f d ^ if c then "c" else "") ds))
    | Push t -> Printf.sprintf "Push %g" t
  in
  Printf.sprintf "seed=%s ops=[%s] consumer=%s"
    (match p.seed with None -> "-" | Some s -> Int64.to_string s)
    (String.concat "; " (List.map op p.ops))
    (match p.consumer with
    | None -> "-"
    | Some (t, tos) -> Printf.sprintf "%g [%s]" t (String.concat ";" (List.map f tos)))

let gen_program =
  let open QCheck.Gen in
  let time = oneofl [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let dt = oneofl [ 0.0; 0.5; 1.0; 2.0 ] in
  let cancel = frequency [ (4, return Keep); (1, return Cancel_now); (1, map (fun t -> Cancel_at t) time) ] in
  let op =
    frequency
      [ (3, map3 (fun t c a -> At (t, c, a)) time cancel (option dt));
        (2, map2 (fun t ds -> Sleeper (t, ds)) time (list_size (int_range 0 4) (pair dt bool)));
        (2, map (fun t -> Push t) time) ]
  in
  map3
    (fun seed ops consumer -> { seed; ops; consumer })
    (option (map Int64.of_int int))
    (list_size (int_range 1 10) op)
    (option (pair time (list_size (int_range 1 4) (oneofl [ 0.0; 0.5; 1.0; 3.0 ]))))

let show_take = function None -> "none" | Some v -> string_of_int v

(* The program on [Sched]: its probe journal and its wake-up log. *)
let run_sched p =
  let clock = Clock.create () in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  Sched.set_tie_seed s p.seed;
  let journal = ref [] and log = ref [] in
  Sched.set_probe s (Some (fun time seq -> journal := (time, seq) :: !journal));
  let note tag = log := (tag, Clock.now clock) :: !log in
  let mb = Sched.Mailbox.create () in
  let pushes = ref 0 in
  List.iteri
    (fun i op ->
      match op with
      | At (time, cancel, after) ->
        let h =
          Sched.schedule_at s time (fun () ->
              note (Printf.sprintf "at%d" i);
              Option.iter
                (fun d -> ignore (Sched.schedule_after s d (fun () -> note (Printf.sprintf "after%d" i))))
                after)
        in
        (match cancel with
        | Keep -> ()
        | Cancel_now -> Sched.cancel h
        | Cancel_at c -> ignore (Sched.schedule_at s c (fun () -> Sched.cancel h)))
      | Sleeper (start, sleeps) ->
        ignore
          (Sched.spawn_at s start (fun () ->
               note (Printf.sprintf "start%d" i);
               List.iteri
                 (fun j (d, via_clock) ->
                   if via_clock then Clock.advance clock d else Sched.sleep s d;
                   note (Printf.sprintf "wake%d.%d" i j))
                 sleeps))
      | Push time ->
        ignore
          (Sched.schedule_at s time (fun () ->
               incr pushes;
               Sched.Mailbox.push s mb !pushes)))
    p.ops;
  Option.iter
    (fun (start, timeouts) ->
      ignore
        (Sched.spawn_at s start (fun () ->
             List.iter
               (fun timeout -> note ("take:" ^ show_take (Sched.Mailbox.take s mb ~timeout)))
               timeouts)))
    p.consumer;
  Sched.run s;
  (List.rev !journal, List.rev !log, Sched.events_run s)

(* The reference: the same program over a sorted list of events, with
   processes written as callbacks and the mailbox's documented
   semantics — a push to a waiting consumer wakes it as its own event
   at the push's time, and that wake-up cancels the consumer's
   timeout. *)
module Model = struct
  type ev = { time : float; tie : int64; seq : int; mutable cancelled : bool; act : unit -> unit }

  (* splitmix64, the scheduler's documented tie hash of (seed, seq). *)
  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let run p =
    let now = ref 0.0 and next = ref 0 and pending = ref [] in
    let journal = ref [] and log = ref [] in
    let note tag = log := (tag, !now) :: !log in
    let at time act =
      let seq = !next in
      incr next;
      let tie =
        match p.seed with
        | None -> 0L
        | Some seed -> mix64 (Int64.add seed (Int64.mul (Int64.of_int seq) 0x9e3779b97f4a7c15L))
      in
      let ev = { time; tie; seq; cancelled = false; act } in
      pending := ev :: !pending;
      ev
    in
    let after d act = at (!now +. d) act in
    (* the mailbox *)
    let items = Queue.create () and waiter = ref None and pushes = ref 0 in
    let push x =
      match !waiter with
      | Some w ->
        waiter := None;
        ignore (after 0.0 (fun () -> w (Some x)))
      | None -> Queue.push x items
    in
    let take timeout k =
      match Queue.take_opt items with
      | Some v -> k (Some v)
      | None when timeout <= 0.0 -> k None
      | None ->
        let timer =
          after timeout (fun () ->
              match !waiter with
              | Some w ->
                waiter := None;
                w None
              | None -> ())
        in
        waiter :=
          Some
            (fun v ->
              timer.cancelled <- true;
              k v)
    in
    List.iteri
      (fun i op ->
        match op with
        | At (time, cancel, follow) ->
          let ev =
            at time (fun () ->
                note (Printf.sprintf "at%d" i);
                Option.iter
                  (fun d -> ignore (after d (fun () -> note (Printf.sprintf "after%d" i))))
                  follow)
          in
          (match cancel with
          | Keep -> ()
          | Cancel_now -> ev.cancelled <- true
          | Cancel_at c -> ignore (at c (fun () -> ev.cancelled <- true)))
        | Sleeper (start, sleeps) ->
          let rec go j = function
            | [] -> ()
            | (d, via_clock) :: rest ->
              let wake () =
                note (Printf.sprintf "wake%d.%d" i j);
                go (j + 1) rest
              in
              (* a zero charge through the clock is no yield at all *)
              if via_clock && d = 0.0 then wake () else ignore (after d wake)
          in
          ignore
            (at start (fun () ->
                 note (Printf.sprintf "start%d" i);
                 go 0 sleeps))
        | Push time ->
          ignore
            (at time (fun () ->
                 incr pushes;
                 push !pushes)))
      p.ops;
    Option.iter
      (fun (start, timeouts) ->
        let rec go = function
          | [] -> ()
          | timeout :: rest ->
            take timeout (fun v ->
                note ("take:" ^ show_take v);
                go rest)
        in
        ignore (at start (fun () -> go timeouts)))
      p.consumer;
    let key e = (e.time, e.tie, e.seq) in
    let rec loop () =
      match List.sort (fun a b -> compare (key a) (key b)) !pending with
      | [] -> ()
      | ev :: rest ->
        pending := rest;
        if not ev.cancelled then begin
          if ev.time > !now then now := ev.time;
          journal := (ev.time, ev.seq) :: !journal;
          ev.act ()
        end;
        loop ()
    in
    loop ();
    (List.rev !journal, List.rev !log, List.length !journal)
end

let prop_sched_matches_model =
  QCheck.Test.make ~name:"sched: journal and wake-ups equal the (time, tie, seq) model"
    ~count:400
    (QCheck.make ~print:show_program gen_program)
    (fun p -> run_sched p = Model.run p)

(* --- busy-until link serialization ------------------------------------ *)

(* Default cost model: 70 us latency, 12.5 MB/s -> 12500 bytes take
   1 ms of serialization (the same numbers test_simnet pins). *)
let test_link_busy_until_serializes_flows () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Cost.default ~stats in
  let s = Sched.create ~clock in
  Sched.attach_clock s;
  let finished = ref [] in
  let sender tag flow () =
    Link.transmit link ~flow 12500;
    finished := (tag, Clock.now clock) :: !finished
  in
  Sched.spawn s (sender "first" 0);
  Sched.spawn s (sender "second" 0);
  Sched.spawn s (sender "other-flow" 1);
  Sched.run s;
  let lookup tag = List.assoc tag !finished in
  feq "first transmission unqueued" 0.00107 (lookup "first");
  feq "same flow queues behind it" 0.00207 (lookup "second");
  feq "different flow does not queue" 0.00107 (lookup "other-flow");
  Alcotest.(check int) "one queued transmission counted" 1
    (Stats.get stats "link.queued");
  feq "flow 0 wire reserved through both" 0.002 (Link.busy_until link 0)

let test_link_serial_mode_unchanged () =
  (* Without a scheduler the busy-until term must always be zero:
     the exact timings the seed tests pin. *)
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Cost.default ~stats in
  Link.transmit link 12500;
  Link.transmit link 12500;
  feq "two serial transmissions, no queueing" (2.0 *. 0.00107) (Clock.now clock);
  Alcotest.(check int) "nothing queued" 0 (Stats.get stats "link.queued")

let test_link_clock_rewind_drops_stale_reservation () =
  (* Benchmarks rewind the clock between an out-of-band setup phase
     and the timed workload (Bonnie's Search.build does exactly
     this). A wire reservation left over from before the rewind must
     not surface as phantom queueing delay in the new epoch. *)
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Cost.default ~stats in
  Link.transmit link 12500;
  feq "reservation live before rewind" 0.001 (Link.busy_until link 0);
  Clock.reset clock;
  feq "stale reservation reads as idle" 0.0 (Link.busy_until link 0);
  Link.transmit link 12500;
  feq "post-rewind transmit pays no phantom wait" 0.00107 (Clock.now clock);
  Alcotest.(check int) "nothing queued" 0 (Stats.get stats "link.queued")

(* --- RPC worker pool over a toy service ------------------------------- *)

type env = {
  clock : Clock.t;
  stats : Stats.t;
  link : Link.t;
  srv : Rpc.server;
  sched : Sched.t;
  executions : int ref;
}

(* prog 91 proc 1: bump the caller's (uid-keyed) counter and return
   it, charging [service_cost] of virtual server CPU. *)
let make_env ?(service_cost = 0.002) ~workers ~queue_depth () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Cost.default ~stats in
  let srv = Rpc.server ~clock ~cost:Cost.default ~stats in
  let sched = Sched.create ~clock in
  Sched.attach_clock sched;
  Rpc.set_pool srv ~sched ~workers ~queue_depth;
  let executions = ref 0 in
  let counts = Hashtbl.create 8 in
  Rpc.register srv ~prog:91 ~vers:1 (fun ~conn ~proc ~args:_ e ->
      match proc with
      | 1 ->
        incr executions;
        Clock.advance clock service_cost;
        let uid = conn.Rpc.uid in
        let c = 1 + Option.value (Hashtbl.find_opt counts uid) ~default:0 in
        Hashtbl.replace counts uid c;
        Xdr.Enc.raw e (string_of_int c);
        Ok ()
      | _ -> Error Rpc.Proc_unavail);
  { clock; stats; link; srv; sched; executions }

let retry = { Rpc.base_timeout = 0.4; backoff = 2.0; max_attempts = 8; jitter = 0.1 }

(* Closed loop: [clients] processes each make [ops] sequential calls.
   Returns each client's reply sequence. *)
let closed_loop env ~clients ~ops =
  let results = Array.make clients [] in
  for i = 0 to clients - 1 do
    let c = Rpc.connect ~link:env.link ~uid:i ~retry env.srv in
    Sched.spawn env.sched (fun () ->
        for _ = 1 to ops do
          let r = Xdr.Dec.rest (Rpc.call c ~prog:91 ~vers:1 ~proc:1 (fun _ -> ())) in
          results.(i) <- r :: results.(i)
        done)
  done;
  Sched.run env.sched;
  Array.map List.rev results

let test_interleaving_replay_is_deterministic () =
  let journal_of () =
    let env = make_env ~workers:2 ~queue_depth:4 () in
    let journal = ref [] in
    Sched.set_probe env.sched (Some (fun time seq -> journal := (time, seq) :: !journal));
    let results = closed_loop env ~clients:3 ~ops:3 in
    (List.rev !journal, results, Clock.now env.clock, Trace.Metrics.counters env.stats)
  in
  let j1, r1, now1, s1 = journal_of () in
  let j2, r2, now2, s2 = journal_of () in
  Alcotest.(check bool) "a real interleaving happened" true (List.length j1 > 20);
  Alcotest.(check (list (pair (float 0.) int))) "same event order, twice" j1 j2;
  Alcotest.(check (array (list string))) "same results" r1 r2;
  feq "same finish time" now1 now2;
  Alcotest.(check (list (pair string int))) "same counters" s1 s2

let prop_concurrent_equals_serial =
  QCheck.Test.make ~name:"concurrent clients == serial execution" ~count:25
    (QCheck.make
       ~print:(fun (c, o, w, d) -> Printf.sprintf "clients=%d ops=%d workers=%d depth=%d" c o w d)
       QCheck.Gen.(quad (int_range 1 4) (int_range 1 5) (int_range 1 3) (int_range 1 3)))
    (fun (clients, ops, workers, queue_depth) ->
      let env = make_env ~workers ~queue_depth () in
      let results = closed_loop env ~clients ~ops in
      (* Serial semantics per client: its nth call observes exactly n
         of its own bumps, whatever the interleaving — and nothing is
         ever executed twice (retransmits coalesce or replay). *)
      let expected = List.init ops (fun k -> string_of_int (k + 1)) in
      Array.for_all (fun r -> r = expected) results
      && !(env.executions) = clients * ops)

let test_coalescing_and_drc_under_retransmits () =
  let env = make_env ~service_cost:1.0 ~workers:1 ~queue_depth:4 () in
  let conn = { Rpc.peer = "alice"; uid = 1 } in
  let xid = Rpc.make_xid ~client_id:1 ~seq:1 in
  let data = Rpc.encode_call ~xid ~prog:91 ~vers:1 ~proc:1 ~uid:1 "" in
  let replies = ref [] in
  let reply tag raw = replies := (tag, Clock.now env.clock, raw) :: !replies in
  (* t=0: original. t=0.5: retransmission while the original is still
     executing (service takes 1 s) — must coalesce, not re-execute.
     t=5: late retransmission after completion — must replay from the
     DRC, again without re-executing. *)
  ignore (Sched.schedule_at env.sched 0.0 (fun () ->
      Rpc.submit_datagram env.srv ~conn ~reply:(reply "orig") data));
  ignore (Sched.schedule_at env.sched 0.5 (fun () ->
      Rpc.submit_datagram env.srv ~conn ~reply:(reply "retrans") data));
  ignore (Sched.schedule_at env.sched 5.0 (fun () ->
      Rpc.submit_datagram env.srv ~conn ~reply:(reply "late") data));
  Sched.run env.sched;
  Alcotest.(check int) "executed exactly once" 1 !(env.executions);
  Alcotest.(check int) "in-flight retransmit coalesced" 1
    (Stats.get env.stats "rpc.coalesced");
  Alcotest.(check int) "late retransmit hit the DRC" 1
    (Stats.get env.stats "rpc.drc_hits");
  (match !replies with
  | [ (_, _, a); (_, _, b); (_, _, c) ] ->
    Alcotest.(check bool) "all three saw identical reply bytes" true (a = b && b = c)
  | l -> Alcotest.failf "expected 3 replies, got %d" (List.length l));
  Alcotest.(check bool) "coalesced reply arrived with the original" true
    (List.exists (fun (tag, at, _) -> tag = "retrans" && at < 1.5) !replies)

let test_backpressure_accounting () =
  let env = make_env ~service_cost:0.01 ~workers:1 ~queue_depth:2 () in
  let replies = ref 0 in
  (* Five clients' datagrams land in the same instant: 2 fit the
     queue, the worker has not yet started, 3 are shed. *)
  ignore (Sched.schedule_at env.sched 0.0 (fun () ->
      for i = 1 to 5 do
        let xid = Rpc.make_xid ~client_id:i ~seq:1 in
        let data = Rpc.encode_call ~xid ~prog:91 ~vers:1 ~proc:1 ~uid:i "" in
        let conn = { Rpc.peer = Printf.sprintf "peer-%d" i; uid = i } in
        Rpc.submit_datagram env.srv ~conn ~reply:(fun _ -> incr replies) data
      done));
  Sched.run env.sched;
  Alcotest.(check int) "three datagrams shed" 3 (Stats.get env.stats "rpc.queue_rejects");
  Alcotest.(check int) "queued jobs executed" 2 !(env.executions);
  Alcotest.(check int) "and answered" 2 !replies;
  Alcotest.(check int) "queue high-water mark" 2 (Rpc.queue_peak env.srv)

let test_backpressure_absorbed_by_retransmission () =
  (* Undersized queue, one worker, four impatient clients: rejections
     must occur, yet every call completes via the at-least-once retry
     path — and nothing executes twice. *)
  let env = make_env ~service_cost:0.05 ~workers:1 ~queue_depth:1 () in
  let results = closed_loop env ~clients:4 ~ops:2 in
  let expected = [ "1"; "2" ] in
  Array.iteri
    (fun i r ->
      Alcotest.(check (list string)) (Printf.sprintf "client %d completed" i) expected r)
    results;
  Alcotest.(check bool) "backpressure actually engaged" true
    (Stats.get env.stats "rpc.queue_rejects" > 0);
  Alcotest.(check int) "no duplicate executions" 8 !(env.executions)

let test_queue_metrics_populated () =
  let env = make_env ~service_cost:0.02 ~workers:2 ~queue_depth:8 () in
  let _ = closed_loop env ~clients:6 ~ops:2 in
  let wait = Trace.Metrics.histogram env.stats "rpc.queue.wait" in
  let service = Trace.Metrics.histogram env.stats "rpc.queue.service" in
  Alcotest.(check int) "every execution measured a wait" 12 (Trace.Metrics.count wait);
  Alcotest.(check int) "and a service time" 12 (Trace.Metrics.count service);
  Alcotest.(check bool) "service time accumulates the CPU charges" true
    (Trace.Metrics.sum service >= 12.0 *. 0.02 -. 1e-9);
  Alcotest.(check bool) "some request actually waited" true
    (Trace.Metrics.sum wait > 0.0);
  Alcotest.(check (option (float 1e-9))) "depth gauge drained to zero" (Some 0.0)
    (Trace.Metrics.gauge env.stats "rpc.queue.depth");
  Alcotest.(check bool) "queue depth peaked above one" true (Rpc.queue_peak env.srv > 1)

(* --- end to end: a concurrent DisCFS deployment ----------------------- *)

let test_deploy_concurrent_end_to_end () =
  let d = Cluster.make ~workers:2 ~queue_depth:8 ~seed:"test-conc" () in
  let sched = Option.get (Cluster.sched d) in
  (* Setup runs serially, as ordinary code: attach three ESP clients
     (IKE handshake and mount) and create one file each. *)
  let clients =
    List.init 3 (fun i ->
        let c = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:i () in
        let name = Printf.sprintf "f%d.txt" i in
        let fh, _, _ = CC.create c ~dir:(CC.root c) name () in
        (i, c, fh))
  in
  (* The workload overlaps: each client writes then reads its own
     file through the pooled RPC path. *)
  let reads = Hashtbl.create 4 in
  List.iter
    (fun (i, c, fh) ->
      (* discfs-lint: allow races "each process owns its client and its own Hashtbl key; the table is read only after Sched.run returns" *)
      Sched.spawn sched (fun () ->
          let body = Printf.sprintf "client-%d-body" i in
          CC.write_all c fh body;
          let _, data =
            CC.read c fh ~off:0 ~count:(String.length body)
          in
          Hashtbl.replace reads i data))
    clients;
  Sched.run sched;
  List.iter
    (fun (i, _, _) ->
      Alcotest.(check (option string))
        (Printf.sprintf "client %d read its own bytes" i)
        (Some (Printf.sprintf "client-%d-body" i))
        (Hashtbl.find_opt reads i))
    clients;
  let wait = Trace.Metrics.histogram (Cluster.metrics d) "rpc.queue.wait" in
  Alcotest.(check bool) "requests flowed through the queue" true
    (Trace.Metrics.count wait > 0)

let suite =
  [
    Alcotest.test_case "event order: time, FIFO ties, cancel" `Quick test_event_order;
    Alcotest.test_case "clock hook turns advance into sleep" `Quick
      test_clock_hook_makes_advance_a_sleep;
    Alcotest.test_case "mailbox delivery and timeout" `Quick test_mailbox_delivery_and_timeout;
    Alcotest.test_case "NaN times are refused; infinity is legal" `Quick test_nan_time_rejected;
    Alcotest.test_case "an escaping exception aborts run, which resumes" `Quick
      test_exception_aborts_run;
    QCheck_alcotest.to_alcotest prop_sched_matches_model;
    Alcotest.test_case "busy-until serializes same-flow sends" `Quick
      test_link_busy_until_serializes_flows;
    Alcotest.test_case "serial link timings unchanged" `Quick test_link_serial_mode_unchanged;
    Alcotest.test_case "clock rewind drops stale wire reservations" `Quick
      test_link_clock_rewind_drops_stale_reservation;
    Alcotest.test_case "interleaving replay is deterministic" `Quick
      test_interleaving_replay_is_deterministic;
    QCheck_alcotest.to_alcotest prop_concurrent_equals_serial;
    Alcotest.test_case "retransmits coalesce; DRC replays late ones" `Quick
      test_coalescing_and_drc_under_retransmits;
    Alcotest.test_case "queue-full sheds and accounts rejects" `Quick
      test_backpressure_accounting;
    Alcotest.test_case "rejected calls recover via retransmission" `Quick
      test_backpressure_absorbed_by_retransmission;
    Alcotest.test_case "queue metrics populated" `Quick test_queue_metrics_populated;
    Alcotest.test_case "concurrent DisCFS deployment end to end" `Quick
      test_deploy_concurrent_end_to_end;
  ]
