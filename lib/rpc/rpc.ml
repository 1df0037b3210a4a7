(* discfs-lint: atomic-section — queue admission (decode, DRC probe,
   in-flight probe, enqueue) and worker completion (DRC install, in-flight
   retirement, reply spawn) each run without an intervening yield, and both
   delicate windows are instrumented for the dynamic checker (set_race). *)

module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats
module Link = Simnet.Link
module Fault = Simnet.Fault
module Sched = Simnet.Sched

type fault =
  | Prog_unavail
  | Proc_unavail
  | Garbage_args
  | System_err of string

type conn_info = { peer : string; uid : int }
type handler =
  conn:conn_info -> proc:int -> args:Xdr.Dec.t -> Xdr.Enc.t -> (unit, fault) result

(* Duplicate-request cache: under at-least-once retransmission a
   non-idempotent call (CREATE, REMOVE, RENAME, WRITE) may arrive
   twice; the server replays the recorded reply instead of
   re-executing. Keyed by (peer, xid, proc) as the paper's NFSv2/UDP
   substrate does by (client address, xid). Bounded by the shared
   {!Lru}: a cache hit refreshes the entry, so under sustained
   retransmission the still-hot entries survive and cold ones are
   evicted first. Recording a reply never refreshes an entry that is
   already there. *)
let default_drc_capacity = 512

(* A decoded CALL; [args] is a view into the opened datagram,
   positioned on the procedure arguments. *)
type call = { xid : int; prog : int; vers : int; proc : int; uid : int; args : Xdr.Dec.t }

(* --- request queue + worker pool ------------------------------------- *)

(* One queued request, fully decoded at admission so the worker can
   service it without touching the wire bytes again. [job_reply]
   carries the whole client-side reply path (seal, transmit, wake the
   waiting call) as a closure over the finished reply arena, keeping
   the server free of any knowledge of channels or mailboxes. *)
type job = {
  job_conn : conn_info;
  job_key : string * int * int;
  job_call : call;
  job_len : int; (* raw datagram bytes, for the unmarshal CPU charge *)
  job_enqueued : float;
  job_origin : (int * int) option; (* (pid, epoch) of the admission DRC check *)
  job_reply : Xdr.Enc.t -> unit;
}

(* Bounded queue with per-client FIFO fairness: one FIFO per peer,
   drained round-robin, so a chatty client cannot starve the others.
   [in_flight] maps a DRC key to the reply closures of every
   retransmission that arrived while the original was still queued or
   executing — they are all answered by the one execution. *)
type pool = {
  sched : Sched.t;
  workers : int;
  queue_depth : int;
  fifos : (string, job Queue.t) Hashtbl.t;
  rr : string Queue.t; (* peers with a non-empty FIFO, round-robin *)
  mutable queued : int;
  mutable peak : int;
  mutable busy : int; (* workers currently running *)
  in_flight : (string * int * int, (Xdr.Enc.t -> unit) list ref) Hashtbl.t;
}

type server = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  programs : (int * int, handler) Hashtbl.t;
  drc : (string * int * int, Xdr.Enc.t) Lru.t;
  mutable trace : Trace.t;
  mutable pool : pool option;
  (* Client-id allocator. Per server, not global: ids key the xid
     bands (so they only need to be unique among clients of one
     server) and seed each client's jitter rng, and a fresh
     deployment must hand out the same sequence every run for
     byte-reproducible benchmarks. *)
  mutable next_client : int;
  mutable dead : bool;
  mutable race_drc : Race.monitor;
  mutable race_if : Race.monitor;
}

let server ~clock ~cost ~stats =
  {
    clock;
    cost;
    stats;
    programs = Hashtbl.create 8;
    drc = Lru.create ~capacity:default_drc_capacity;
    trace = Trace.null;
    pool = None;
    next_client = 0;
    dead = false;
    race_drc = Race.null;
    race_if = Race.null;
  }

let register t ~prog ~vers handler = Hashtbl.replace t.programs (prog, vers) handler

let set_trace t trace = t.trace <- trace

let set_race t ~drc ~in_flight =
  t.race_drc <- drc;
  t.race_if <- in_flight

(* A DRC key rendered for the race monitors. The peer is a whole
   principal, so the key is built only for an armed monitor: under
   [Race.null] a probe costs no allocation. *)
let race_key (peer, xid, proc) = Printf.sprintf "%s/%d/%d" peer xid proc

let race_read m key = if Race.enabled m then Race.read m ~key:(race_key key)
let race_check m key = if Race.enabled m then Race.check m ~key:(race_key key)
let race_write m key = if Race.enabled m then Race.write m ~key:(race_key key) ()
let race_act m key = if Race.enabled m then Race.act m ~key:(race_key key) ()

let set_pool t ~sched ~workers ~queue_depth =
  if workers <= 0 then invalid_arg "Rpc.set_pool: non-positive workers";
  if queue_depth <= 0 then invalid_arg "Rpc.set_pool: non-positive queue_depth";
  t.pool <-
    Some
      {
        sched;
        workers;
        queue_depth;
        fifos = Hashtbl.create 8;
        rr = Queue.create ();
        queued = 0;
        peak = 0;
        busy = 0;
        in_flight = Hashtbl.create 16;
      }

let queue_peak t = match t.pool with Some p -> p.peak | None -> 0

let drc_evicted t n = if n > 0 then Stats.add t.stats "rpc.drc_evictions" n

let set_drc_capacity t cap =
  if cap < 0 then invalid_arg "Rpc.set_drc_capacity: negative capacity";
  drc_evicted t (Lru.set_capacity t.drc cap)

let shutdown t = t.dead <- true

type channel = {
  server_open : string -> Xdr.Dec.t;
  server_seal : Xdr.Enc.t -> string;
  client_open : string -> Xdr.Dec.t;
  client_seal : Xdr.Enc.t -> string;
}

let plaintext =
  {
    server_open = Xdr.Dec.of_string;
    server_seal = Xdr.Enc.to_string;
    client_open = Xdr.Dec.of_string;
    client_seal = Xdr.Enc.to_string;
  }

type retry = {
  base_timeout : float;
  backoff : float;
  max_attempts : int;
  jitter : float;
}

(* Classic NFS-over-UDP client behaviour: sub-second initial timeout,
   doubling per retransmission, a handful of attempts before the
   "server not responding" error. *)
let default_retry = { base_timeout = 0.8; backoff = 2.0; max_attempts = 6; jitter = 0.1 }

type client = {
  srv : server;
  link : Link.t;
  mutable channel : channel;
  conn : conn_info;
  id : int;
  mutable seq : int;
  retry : retry;
  rng : Fault.Rng.t;
  mutable before_call : unit -> unit;
}

(* Each connection gets its own xid band so DRC keys (peer, xid,
   proc) never collide across clients, even plaintext ones that share
   the empty peer string. The client id lives in the top 12 bits of
   the 32-bit xid and the per-client sequence in the low 20: a client
   issuing over 2^20 calls wraps within its *own* band (harmless —
   the DRC holds far fewer than 2^20 entries) instead of bleeding
   into the next client's, which is what the old flat
   [counter * 1_000_000] scheme did. *)
let xid_seq_bits = 20
let xid_seq_mask = (1 lsl xid_seq_bits) - 1

let make_xid ~client_id ~seq =
  ((client_id land 0xfff) lsl xid_seq_bits) lor (seq land xid_seq_mask)

let connect ~link ?(channel = plaintext) ?(peer = "") ?(uid = 0) ?(retry = default_retry) srv =
  srv.next_client <- srv.next_client + 1;
  {
    srv;
    link;
    channel;
    conn = { peer; uid };
    id = srv.next_client;
    seq = 0;
    retry;
    rng = Fault.Rng.create ~seed:(Printf.sprintf "rpc-client-%d" srv.next_client);
    before_call = (fun () -> ());
  }

let set_channel t channel = t.channel <- channel
let set_before_call t f = t.before_call <- f
let client_id t = t.id

exception Rpc_error of fault
exception Rpc_timeout of string

(* Wire encoding (RFC 5531): we keep real message framing so tests can
   check byte-level structure and the link charges realistic sizes. *)

let msg_call = 0
let msg_reply = 1
let auth_unix = 1

(* xid, mtype, rpcvers, prog, vers, proc, AUTH_UNIX cred (flavor,
   length, uid), AUTH_NONE verf (flavor, length): eleven words. *)
let call_header_len = 44

let encode_call_header e ~xid ~prog ~vers ~proc ~uid =
  Xdr.Enc.uint32 e xid;
  Xdr.Enc.uint32 e msg_call;
  Xdr.Enc.uint32 e 2 (* rpcvers *);
  Xdr.Enc.uint32 e prog;
  Xdr.Enc.uint32 e vers;
  Xdr.Enc.uint32 e proc;
  (* cred: AUTH_UNIX carrying the uid, written straight into the
     message arena via reserve/patch — no nested buffer *)
  Xdr.Enc.uint32 e auth_unix;
  Xdr.Enc.sub_writer e (fun body -> Xdr.Enc.uint32 body uid);
  (* verf: AUTH_NONE *)
  Xdr.Enc.uint32 e 0;
  Xdr.Enc.opaque e ""

let encode_call_into e ~xid ~prog ~vers ~proc ~uid args =
  Xdr.Enc.ensure e (call_header_len + String.length args);
  encode_call_header e ~xid ~prog ~vers ~proc ~uid;
  Xdr.Enc.raw e args (* args are pre-marshalled bytes *)

let encode_call ~xid ~prog ~vers ~proc ~uid args =
  (* discfs-lint: allow hotpath-alloc "string entry point for tests and plaintext framing; the hot path uses encode_call_into" *)
  let e = Xdr.Enc.create () in
  encode_call_into e ~xid ~prog ~vers ~proc ~uid args;
  Xdr.Enc.to_string e

(* The credential and verifier bodies are read where they lie: only
   the AUTH_UNIX uid, the body's first word, is taken out. *)
let auth_unix_uid s ~off ~len =
  if len < 4 then raise (Xdr.Decode_error "truncated XDR data");
  Int32.to_int (String.get_int32_be s off) land 0xffffffff

let skip_body _ ~off:_ ~len:_ = 0

let decode_call d =
  let xid = Xdr.Dec.uint32 d in
  let mtype = Xdr.Dec.uint32 d in
  if mtype <> msg_call then raise (Xdr.Decode_error "expected CALL");
  let rpcvers = Xdr.Dec.uint32 d in
  if rpcvers <> 2 then raise (Xdr.Decode_error "bad RPC version");
  let prog = Xdr.Dec.uint32 d in
  let vers = Xdr.Dec.uint32 d in
  let proc = Xdr.Dec.uint32 d in
  let cred_flavor = Xdr.Dec.uint32 d in
  let uid = Xdr.Dec.opaque_with d (if cred_flavor = auth_unix then auth_unix_uid else skip_body) in
  let _verf_flavor = Xdr.Dec.uint32 d in
  let _verf_body = Xdr.Dec.opaque_with d skip_body in
  (* [d] now sits on the procedure arguments: the handler decodes them
     where they lie. *)
  { xid; prog; vers; proc; uid; args = d }

let accept_stat_of_fault = function
  | Prog_unavail -> 1
  | Proc_unavail -> 3
  | Garbage_args -> 4
  | System_err _ -> 5

(* The accepted-reply frame up to its accept_stat word, which is left
   at SUCCESS (0) and returned for patching once the outcome is
   known. *)
let reply_header e ~xid =
  Xdr.Enc.uint32 e xid;
  Xdr.Enc.uint32 e msg_reply;
  Xdr.Enc.uint32 e 0 (* MSG_ACCEPTED *);
  Xdr.Enc.uint32 e 0 (* verf AUTH_NONE *);
  Xdr.Enc.opaque e "";
  Xdr.Enc.reserve_uint32 e

let encode_reply_into e ~xid outcome =
  let stat = reply_header e ~xid in
  match outcome with
  | Ok results -> Xdr.Enc.raw e results
  | Error fault -> Xdr.Enc.patch_uint32 e stat (accept_stat_of_fault fault)

let garbage_reply () =
  (* discfs-lint: allow hotpath-alloc "the Garbage_args answer to an undecodable datagram, which runs no handler" *)
  let e = Xdr.Enc.create () in
  encode_reply_into e ~xid:0 (Error Garbage_args);
  e

let decode_reply_view d =
  let xid = Xdr.Dec.uint32 d in
  let mtype = Xdr.Dec.uint32 d in
  if mtype <> msg_reply then raise (Xdr.Decode_error "expected REPLY");
  let reply_stat = Xdr.Dec.uint32 d in
  if reply_stat <> 0 then raise (Rpc_error (System_err "RPC message denied"));
  let _verf_flavor = Xdr.Dec.uint32 d in
  let _verf_body = Xdr.Dec.opaque d in
  match Xdr.Dec.uint32 d with
  | 0 -> (xid, Ok d) (* [d] sits on the results: decode them where they lie *)
  | 1 -> (xid, Error Prog_unavail)
  | 3 -> (xid, Error Proc_unavail)
  | 4 -> (xid, Error Garbage_args)
  | n -> (xid, Error (System_err (Printf.sprintf "accept_stat %d" n)))

let unmarshal_charge srv nbytes =
  Clock.advance srv.clock
    (srv.cost.Cost.rpc_overhead +. (float_of_int nbytes *. srv.cost.Cost.rpc_per_byte))

let finish_reply e ~body stat = function
  | Ok () -> ()
  | Error fault ->
    Xdr.Enc.truncate e body;
    Xdr.Enc.patch_uint32 e stat (accept_stat_of_fault fault)

(* Server side of one execution: the handler encodes its results
   straight into the reply arena behind the header; a fault (or
   undecodable arguments) discards whatever it wrote and patches the
   accept_stat word instead. Returns the finished arena: nothing
   writes to it again, so the DRC records it as is and every
   transmission of the reply seals it where it lies. *)
let execute srv ~tr ~(conn : conn_info) c =
  (* discfs-lint: allow hotpath-alloc "the reply arena: handlers encode results straight into it, the DRC records it and every (re)transmission seals from it" *)
  let e = Xdr.Enc.create () in
  let stat = reply_header e ~xid:c.xid in
  let body = Xdr.Enc.length e in
  let outcome =
    match Hashtbl.find_opt srv.programs (c.prog, c.vers) with
    | None -> Error Prog_unavail
    | Some handler -> (
      try handler ~conn:{ conn with uid = c.uid } ~proc:c.proc ~args:c.args e
      with Xdr.Decode_error _ -> Error Garbage_args)
  in
  if Trace.enabled tr then
    Trace.span tr "xdr.marshal" (fun () -> finish_reply e ~body stat outcome)
  else finish_reply e ~body stat outcome;
  e

let drc_put srv key reply =
  if Lru.capacity srv.drc > 0 && not (Lru.mem srv.drc key) then
    drc_evicted srv (Lru.replace srv.drc key reply)

(* A retransmission of an executed call, about to be answered with
   the recorded reply (the lookup that found it refreshed the entry). *)
let drc_hit srv =
  Stats.incr srv.stats "rpc.drc_hits";
  Trace.instant srv.trace "rpc.drc_hit"

let unmarshal_call srv d =
  unmarshal_charge srv (Xdr.Dec.remaining d);
  decode_call d

(* One call at a live server: decode, then replay or execute. *)
let serve_live srv ~conn d =
  Stats.incr srv.stats "rpc.calls";
  match
    if Trace.enabled srv.trace then
      Trace.span srv.trace "xdr.unmarshal" (fun () -> unmarshal_call srv d)
    else unmarshal_call srv d
  with
  | exception Xdr.Decode_error _ -> Some (garbage_reply ())
  | c -> (
    let key = (conn.peer, c.xid, c.proc) in
    match Lru.find srv.drc key with
    | Some reply ->
      drc_hit srv;
      Some reply
    | None ->
      let reply = execute srv ~tr:srv.trace ~conn c in
      drc_put srv key reply;
      Some reply)

(* Returns the reply arena, or [None] when the server is down (the
   datagram vanishes and the client's retransmission logic deals with
   it). [d] is the opened datagram: the whole plaintext, which the
   call is decoded from where it lies. *)
let serve srv ~conn d =
  if srv.dead then begin
    Stats.incr srv.stats "rpc.dropped_dead";
    None
  end
  else if Trace.enabled srv.trace then
    Trace.span srv.trace "rpc.dispatch" (fun () -> serve_live srv ~conn d)
  else serve_live srv ~conn d

(* --- queued dispatch (worker-pool path) ------------------------------ *)

(* The queue opens no spans of its own, only one-slice instants
   ([rpc.drc_hit], [rpc.queue_reject]): [execute] runs under
   [Trace.null] here, and the queue's observability rides on the
   server registry's counters, gauges and histograms. The handler and
   ESP still trace through their own tracers (see lib/trace/trace.ml). *)

let observe_metric srv name v =
  Trace.Metrics.observe (Trace.Metrics.histogram srv.stats name) v

let pool_gauge srv p =
  if p.queued > p.peak then p.peak <- p.queued;
  Trace.Metrics.set_gauge srv.stats "rpc.queue.depth" (float_of_int p.queued)

(* Answer without occupying a worker (DRC hits, wire garbage): the
   lookup path is cheap and bounded, so it is modelled as an
   independent process paying only the unmarshal CPU. *)
let spawn_reply srv p nbytes reply_thunk =
  Sched.spawn p.sched (fun () ->
      unmarshal_charge srv nbytes;
      reply_thunk ())

let enqueue p job =
  let peer = job.job_conn.peer in
  let q =
    match Hashtbl.find_opt p.fifos peer with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace p.fifos peer q;
      q
  in
  (* Invariant: a peer sits in the round-robin ring exactly when its
     FIFO is non-empty (the drain side re-enqueues it while jobs
     remain), so an empty FIFO here means the peer is not ringed. *)
  if Queue.is_empty q then Queue.push peer p.rr;
  Queue.push job q;
  p.queued <- p.queued + 1

let rec take_job p =
  match Queue.take_opt p.rr with
  | None -> None
  | Some peer -> (
    match Hashtbl.find_opt p.fifos peer with
    | None -> take_job p
    | Some q -> (
      match Queue.take_opt q with
      | None -> take_job p
      | Some job ->
        if not (Queue.is_empty q) then Queue.push peer p.rr;
        Some job))

(* The server crashed while [job] sat in the queue or in service: the
   job, and any result, die with it; the client's retransmissions go
   to the successor. *)
let drop_dead srv p job =
  Stats.incr srv.stats "rpc.dropped_dead";
  race_write srv.race_if job.job_key;
  Hashtbl.remove p.in_flight job.job_key

(* Worker process: drain jobs until the queue is empty, then retire.
   Workers are spawned on demand at admission (up to the pool size),
   which needs no idle-worker bookkeeping and leaves the heap empty
   when the system is quiet. *)
let rec worker_loop srv p =
  match take_job p with
  | None -> p.busy <- p.busy - 1
  | Some job ->
    p.queued <- p.queued - 1;
    pool_gauge srv p;
    if srv.dead then drop_dead srv p job
    else begin
      let started = Clock.now srv.clock in
      observe_metric srv "rpc.queue.wait" (started -. job.job_enqueued);
      if Race.enabled srv.race_drc then
        Race.note srv.race_drc
          (Printf.sprintf "rpc.serve proc=%d peer=%s" job.job_call.proc job.job_conn.peer);
      unmarshal_charge srv job.job_len;
      let reply = execute srv ~tr:Trace.null ~conn:job.job_conn job.job_call in
      observe_metric srv "rpc.queue.service" (Clock.now srv.clock -. started);
      if srv.dead then drop_dead srv p job
      else begin
        (* The act closing the admission slice's DRC-miss check: a
           second execution of the same key would cross this write
           and be reported (benign only if its reply is identical —
           i.e. the call was idempotent after all). *)
        if Race.enabled srv.race_drc then
          Race.act srv.race_drc ?window:job.job_origin ~value:(Xdr.Enc.to_string reply)
            ~key:(race_key job.job_key) ();
        drc_put srv job.job_key reply;
        let waiters =
          match Hashtbl.find_opt p.in_flight job.job_key with
          | Some w -> List.rev !w
          | None -> []
        in
        race_write srv.race_if job.job_key;
        Hashtbl.remove p.in_flight job.job_key;
        job.job_reply reply;
        List.iter (fun notify -> notify reply) waiters
      end
    end;
    worker_loop srv p

(* Admission: dead-drop, DRC replay, retransmit coalescing, then the
   bounded queue. A full queue drops the datagram on the floor — the
   at-least-once retry path absorbs the loss, which is exactly how a
   UDP server sheds load. *)
let admit srv p ~conn ~reply d =
  if srv.dead then Stats.incr srv.stats "rpc.dropped_dead"
  else begin
    Stats.incr srv.stats "rpc.calls";
    let len = Xdr.Dec.remaining d in
    match decode_call d with
    | exception Xdr.Decode_error _ ->
      spawn_reply srv p len (fun () -> reply (garbage_reply ()))
    | c -> (
      let key = (conn.peer, c.xid, c.proc) in
      match (Lru.find srv.drc key, Hashtbl.find_opt p.in_flight key) with
      | Some cached, _ ->
        race_read srv.race_drc key;
        drc_hit srv;
        spawn_reply srv p len (fun () -> reply cached)
      | None, Some waiters ->
        (* a retransmission of a request that is queued or executing
           right now: piggyback on that execution's reply. Check and
           act land in the same slice — the worker's removal write
           can never fall inside this window, which is exactly the
           atomicity the golden race report pins. *)
        race_check srv.race_if key;
        Stats.incr srv.stats "rpc.coalesced";
        race_act srv.race_if key;
        waiters := reply :: !waiters
      | None, None ->
        if p.queued >= p.queue_depth then begin
          Stats.incr srv.stats "rpc.queue_rejects";
          Trace.instant srv.trace "rpc.queue_reject"
        end
        else begin
          (* DRC-miss + not-in-flight: this slice decides to execute.
             The matching act happens in whichever worker completes
             the job — hand it this check's (pid, epoch). *)
          race_check srv.race_drc key;
          race_check srv.race_if key;
          race_act srv.race_if key;
          Hashtbl.replace p.in_flight key (ref []);
          enqueue p
            {
              job_conn = conn;
              job_key = key;
              job_call = c;
              job_len = len;
              job_enqueued = Clock.now srv.clock;
              job_origin = Race.origin srv.race_drc;
              job_reply = reply;
            };
          pool_gauge srv p;
          if p.busy < p.workers then begin
            p.busy <- p.busy + 1;
            Sched.spawn p.sched (fun () -> worker_loop srv p)
          end
        end)
  end

let submit srv ~conn ~reply d =
  match srv.pool with
  | None -> invalid_arg "Rpc.submit: no pool attached"
  | Some p -> admit srv p ~conn ~reply d

(* --- client ---------------------------------------------------------- *)

(* Flows for Link.send reorder hold slots and busy-until wires:
   requests and replies travel in opposite directions. *)
let flow_req = 0
let flow_rep = 1

(* How a call's requests reach the server and its replies come back.
   [Inline]: the server dispatches each request as it arrives, so the
   replies are on the wire when the request's send returns. [Queued]:
   requests go through the pool's queue ([admit]); the reply
   closure seals each reply arena and clocks it back into the mailbox
   as its own process, so a slow reply transmission never blocks the
   worker. *)
type exchange =
  | Inline
  | Queued of pool * string Sched.Mailbox.t * (Xdr.Enc.t -> unit)

(* Hand one arrived copy of a request to the server and return the
   replies already on the wire (none when queued). A packet that fails
   to open (corrupted, replayed, wrong SPI) is silently dropped — the
   client's retry absorbs it; the server never dies on wire garbage. *)
let deliver t ex ~stats pkt =
  match t.channel.server_open pkt with
  | exception _ ->
    Stats.incr stats "rpc.server_rx_drops";
    []
  | plain -> (
    match ex with
    | Queued (p, _, reply) ->
      admit t.srv p ~conn:t.conn ~reply plain;
      []
    | Inline -> (
      match serve t.srv ~conn:t.conn plain with
      | None -> []
      | Some reply -> Link.send t.link ~flow:flow_rep (t.channel.server_seal reply)))

(* Client side: does this arrived packet settle the call with [xid]? *)
let consider_reply t ~tr ~stats ~xid pkt =
  match
    let plain = t.channel.client_open pkt in
    if Trace.enabled tr then Trace.span tr "xdr.unmarshal" (fun () -> decode_reply_view plain)
    else decode_reply_view plain
  with
  | exception Rpc_error f -> Some (Error f) (* MSG_DENIED: a real reply *)
  | exception _ ->
    Stats.incr stats "rpc.client_rx_drops";
    None
  | rxid, outcome ->
    if rxid = xid then Some outcome
    else begin
      Stats.incr stats "rpc.stale_replies";
      None
    end

(* Wait on the mailbox until a reply settles [xid] or [deadline]
   passes: the reply wakes the call the moment it arrives, instead of
   the call sleeping out the whole retransmission timer. *)
let rec await t p mbox ~stats ~xid ~deadline =
  let remaining = deadline -. Clock.now (Link.clock t.link) in
  if remaining <= 0.0 then None
  else
    match Sched.Mailbox.take p.sched mbox ~timeout:remaining with
    | None -> None
    | Some pkt -> (
      match consider_reply t ~tr:Trace.null ~stats ~xid pkt with
      | None -> await t p mbox ~stats ~xid ~deadline (* stale or garbled: keep listening *)
      | settled -> settled)

(* The retransmission timer, jittered so retries don't synchronize. *)
let jittered t timeout =
  timeout *. (1.0 +. (t.retry.jitter *. ((2.0 *. Fault.Rng.float t.rng) -. 1.0)))

let timeout_exhausted t ~prog ~proc =
  Rpc_timeout
    (Printf.sprintf "no reply after %d attempts (prog %d, proc %d)" t.retry.max_attempts
       prog proc)

let marshal_call t ~xid ~prog ~vers ~proc args =
  (* discfs-lint: allow hotpath-alloc "the request arena: the header and the caller's arguments are encoded straight into it and sealed from it on every attempt" *)
  let e = Xdr.Enc.create () in
  encode_call_header e ~xid ~prog ~vers ~proc ~uid:t.conn.uid;
  args e;
  e

(* One round: seal, send, hand to the server, then take the first
   reply that settles the call. Seal on every attempt: a
   retransmission is a fresh datagram with a fresh ESP sequence
   number, never a replayed packet. *)
let exchange t ex ~tr ~stats ~xid ~n ~timeout seal request =
  if n > 1 then Stats.incr stats "rpc.retransmits";
  let arrived = Link.send t.link ~flow:flow_req (seal request) in
  let replies = List.concat_map (deliver t ex ~stats) arrived in
  match ex with
  | Inline -> List.find_map (consider_reply t ~tr ~stats ~xid) replies
  | Queued (p, mbox, _) ->
    let deadline = Clock.now (Link.clock t.link) +. jittered t timeout in
    await t p mbox ~stats ~xid ~deadline

(* The body of {!call}, run inside its span when tracing. *)
let run_call t ex ~tr ~stats ~prog ~vers ~proc args =
  (match ex with
  | Queued _ ->
    if Race.enabled t.srv.race_drc then
      Race.note t.srv.race_drc (Printf.sprintf "rpc.call proc=%d client=%d" proc t.id)
  | Inline -> ());
  t.before_call ();
  t.seq <- t.seq + 1;
  let xid = make_xid ~client_id:t.id ~seq:t.seq in
  (* Every attempt seals under the SA the call started with, even if a
     concurrent call on this client re-keys the channel meanwhile. *)
  let seal = t.channel.client_seal in
  let request =
    if Trace.enabled tr then
      Trace.span tr "xdr.marshal" (fun () -> marshal_call t ~xid ~prog ~vers ~proc args)
    else marshal_call t ~xid ~prog ~vers ~proc args
  in
  let rec attempt n timeout =
    if n > t.retry.max_attempts then raise (timeout_exhausted t ~prog ~proc);
    match
      if Trace.enabled tr then
        Trace.span tr "rpc.attempt"
          ~attrs:[ ("n", string_of_int n) ]
          (fun () -> exchange t ex ~tr ~stats ~xid ~n ~timeout seal request)
      else exchange t ex ~tr ~stats ~xid ~n ~timeout seal request
    with
    | Some (Ok results) -> results
    | Some (Error fault) -> raise (Rpc_error fault)
    | None ->
      (* Nothing usable came back. Inline, wait out the timer in
         virtual time (the queued wait on the mailbox already did),
         then try again with the timeout doubled. *)
      (match ex with
      | Inline ->
        Trace.span tr "rpc.backoff" (fun () ->
            Clock.advance (Link.clock t.link) (jittered t timeout))
      | Queued _ -> ());
      attempt (n + 1) (timeout *. t.retry.backoff)
  in
  attempt 1 t.retry.base_timeout

(* One call loop for both exchanges. The queued one is taken when the
   server has a worker pool and we are running inside a scheduler
   process; there the RPC layer opens no spans of its own. *)
let call t ~prog ~vers ~proc args =
  let ex =
    match t.srv.pool with
    | Some p when Sched.in_process p.sched ->
      let mbox = Sched.Mailbox.create () in
      let reply arena =
        Sched.spawn p.sched (fun () ->
            let sealed = t.channel.server_seal arena in
            List.iter (Sched.Mailbox.push p.sched mbox) (Link.send t.link ~flow:flow_rep sealed))
      in
      Queued (p, mbox, reply)
    | _ -> Inline
  in
  let tr = match ex with Inline -> Link.trace t.link | Queued _ -> Trace.null in
  let stats = Link.stats t.link in
  if Trace.enabled tr then
    Trace.span tr "rpc.call"
      ~attrs:[ ("prog", string_of_int prog); ("proc", string_of_int proc) ]
      (fun () -> run_call t ex ~tr ~stats ~prog ~vers ~proc args)
  else run_call t ex ~tr ~stats ~prog ~vers ~proc args
