type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  mutable trace : Trace.t;
  mutable fault : Fault.t option;
  held : (int, string) Hashtbl.t; (* per-flow reorder hold slot *)
  busy : (int, int * float) Hashtbl.t;
      (* per-flow (clock epoch, busy-until): a reservation stamped
         under an older epoch predates a Clock.reset (benchmarks
         rewind between setup and the timed phase) and is stale *)
}

let create ~clock ~cost ~stats =
  {
    clock;
    cost;
    stats;
    trace = Trace.null;
    fault = None;
    held = Hashtbl.create 4;
    busy = Hashtbl.create 4;
  }

let clock t = t.clock
let cost t = t.cost
let stats t = t.stats
let trace t = t.trace

let set_trace t trace =
  t.trace <- trace;
  match t.fault with Some f -> Fault.set_trace f trace | None -> ()

let set_fault t f =
  (match f with Some f -> Fault.set_trace f t.trace | None -> ());
  t.fault <- f

let fault t = t.fault

let busy_until t flow =
  match Hashtbl.find_opt t.busy flow with
  | Some (epoch, until) when epoch = Clock.epoch t.clock -> until
  | _ -> 0.0

(* Busy-until serialization: the flow is a single wire, so a new
   transmission starts when the previous one has finished clocking
   out. The reservation is recorded *before* the clock charge — under
   a scheduler the charge suspends the calling process, and concurrent
   senders arriving mid-transmission must see the wire occupied. In
   serial mode the clock catches up to (or past) the reservation
   before the next call, so the wait term is always zero and timings
   are exactly as before. *)
let transit t flow nbytes =
  let c = t.cost in
  let serialization =
    if c.Cost.net_bandwidth_bps = infinity then 0.0
    else float_of_int nbytes /. c.Cost.net_bandwidth_bps
  in
  let now = Clock.now t.clock in
  let free_at = busy_until t flow in
  let wait = if free_at > now then free_at -. now else 0.0 in
  Hashtbl.replace t.busy flow (Clock.epoch t.clock, now +. wait +. serialization);
  Stats.add t.stats "link.bytes" nbytes;
  Stats.incr t.stats "link.messages";
  if wait > 0.0 then Stats.incr t.stats "link.queued";
  Clock.advance t.clock (wait +. serialization +. c.Cost.net_latency)

let transmit t ?(flow = 0) nbytes =
  if nbytes < 0 then invalid_arg "Link.transmit: negative size";
  if Trace.enabled t.trace then Trace.span t.trace "net.transit" (fun () -> transit t flow nbytes)
  else transit t flow nbytes

let send t ?(flow = 0) payload =
  transmit t ~flow (String.length payload);
  match t.fault with
  | None -> [ payload ]
  | Some f ->
    (* A packet held for reordering is released behind the next packet
       on the same flow (its wire time was charged when it was sent). *)
    let release delivered =
      match Hashtbl.find_opt t.held flow with
      | None -> delivered
      | Some held ->
        Hashtbl.remove t.held flow;
        delivered @ [ held ]
    in
    (match Fault.net_decide f with
    | Fault.Deliver -> release [ payload ]
    | Fault.Drop ->
      Stats.incr t.stats "link.drops";
      Trace.instant t.trace "fault.net.drop";
      release []
    | Fault.Duplicate ->
      Stats.incr t.stats "link.dups";
      Trace.instant t.trace "fault.net.dup";
      (* Each arrival is its receiver's own buffer, which it may
         open in place, so the second arrival is a fresh copy. *)
      release [ payload; String.sub payload 0 (String.length payload) ]
    | Fault.Corrupt ->
      Stats.incr t.stats "link.corruptions";
      Trace.instant t.trace "fault.net.corrupt";
      release [ Fault.corrupt_bytes f payload ]
    | Fault.Reorder ->
      if Hashtbl.mem t.held flow then release [ payload ]
      else begin
        Stats.incr t.stats "link.reorders";
        Trace.instant t.trace "fault.net.reorder";
        Hashtbl.replace t.held flow payload;
        []
      end)

(* Flush reorder hold slots: a held packet whose flow never sends
   again would otherwise be lost without ever being accounted a drop
   — and would survive a crash/restart inside the live link. Called
   when the endpoint quiesces (crash, shutdown). Deterministic order:
   flows are sorted before draining. *)
let quiesce t =
  let held = Hashtbl.fold (fun flow pkt acc -> (flow, pkt) :: acc) t.held [] in
  let held = List.sort (fun (a, _) (b, _) -> Int.compare a b) held in
  List.iter
    (fun (flow, _pkt) ->
      Hashtbl.remove t.held flow;
      Stats.incr t.stats "link.drops";
      Stats.incr t.stats "link.quiesce_drops";
      Trace.instant t.trace "fault.net.quiesce_drop")
    held;
  Hashtbl.reset t.busy;
  List.length held

