(* discfs-lint: atomic-section — completion counters and the latency
   histogram are bumped in the completing process's own slice, never across
   a yield. *)

(* The open-loop driver: arrivals fire on the virtual clock whether
   or not earlier ops completed, and every op's latency is measured
   from its *scheduled arrival instant* — so time spent waiting for a
   free connection counts, exactly as a user behind a thin client
   would experience it. Completion accounting is conservative by
   construction: offered = completed + failed, and the latency
   histogram holds exactly one observation per completed op (the
   conservation law the churn tests pin). *)

module Sched = Simnet.Sched
module Clock = Simnet.Clock
module Arrival = Simnet.Arrival
module Metrics = Trace.Metrics

type t = {
  latencies : Metrics.histogram;
  mutable offered : int;
  mutable completed : int;
  mutable failed : int;
  mutable first_arrival : float;
  mutable last_completion : float;
}

let makespan t =
  if t.offered = 0 || t.last_completion <= t.first_arrival then 0.0
  else t.last_completion -. t.first_arrival

let throughput t =
  let span = makespan t in
  if span <= 0.0 then 0.0 else float_of_int t.completed /. span

let create ?(buckets = Metrics.default_buckets) ~ops () =
  if ops < 0 then invalid_arg "Gen.create: negative ops";
  {
    latencies = Metrics.make_histogram buckets;
    offered = ops;
    completed = 0;
    failed = 0;
    first_arrival = 0.0;
    last_completion = 0.0;
  }

let complete gen clock ~started ok =
  let now = Clock.now clock in
  if ok then begin
    gen.completed <- gen.completed + 1;
    Metrics.observe gen.latencies (now -. started)
  end
  else gen.failed <- gen.failed + 1;
  if now > gen.last_completion then gen.last_completion <- now

(* Dispatch through a fixed pool of serial channels (one mailbox +
   drain process per channel): arrival [i] is routed to channel
   [i mod channels] and waits its turn, so a single RPC connection
   never carries two overlapping calls, while the arrival clock keeps
   running — the open-loop property lives at the arrival layer, the
   connection limit at this one. Each drain knows up front how many
   jobs it will ever see and retires after them, leaving the heap
   empty when the run is over. *)
let offer ~sched ~arrivals ~ops ?(buckets = Metrics.default_buckets)
    ?(channels = 1) ~op () =
  if ops < 0 then invalid_arg "Gen.offer: negative ops";
  if channels <= 0 then invalid_arg "Gen.offer: channels must be positive";
  let clock = Sched.clock sched in
  let gen = create ~buckets ~ops () in
  if ops > 0 then begin
    let boxes = Array.init channels (fun _ -> Sched.Mailbox.create ()) in
    let pending = Array.make channels 0 in
    for i = 0 to ops - 1 do
      let k = i mod channels in
      pending.(k) <- pending.(k) + 1
    done;
    let arrival_times = Arrival.times arrivals ~n:ops in
    let base = Clock.now clock in
    gen.first_arrival <- base +. arrival_times.(0);
    for i = 0 to ops - 1 do
      let ti = base +. arrival_times.(i) in
      let k = i mod channels in
      Sched.spawn_at sched ti (fun () ->
          Sched.Mailbox.push sched boxes.(k) (fun () ->
              complete gen clock ~started:ti (op i)))
    done;
    let horizon =
      (* Generous upper bound on how long a drain may sit idle: the
         whole arrival span plus slack for retry backoff. Hitting it
         means a job was lost before its mailbox, which offer() never
         does — the drain dying loudly is the right failure mode. *)
      (arrival_times.(ops - 1) +. 1.0) *. 4.0 +. 3600.0
    in
    Array.iteri
      (fun k box ->
        if pending.(k) > 0 then
          Sched.spawn sched (fun () ->
              for _ = 1 to pending.(k) do
                match Sched.Mailbox.take sched box ~timeout:horizon with
                | Some f -> f ()
                | None -> failwith "Gen.offer: drain starved"
              done))
      boxes
  end;
  gen
