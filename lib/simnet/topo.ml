(* An N-host star topology over the existing point-to-point links.

   Each host owns one access link into a non-blocking switch; the
   switch itself never queues (2001-era store-and-forward fabric with
   per-port buffering), so its cost is folded into every access
   link's one-way latency. Contention therefore lives exactly where
   it does on a real edge network: on the host's own wire. All links
   share one clock, one cost model and one stats namespace, so a
   cluster built on a topology stays byte-deterministic under the
   same `Sched` interleavings as a single link. *)

type host = int

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  switch_latency : float;
  mutable links : Link.t array;
  mutable names : string array;
  mutable trace : Trace.t;
  mutable fault : Fault.t option;
}

let default_switch_latency = 0.00001 (* 10 us store-and-forward hop *)

let create ~clock ~cost ~stats ?(switch_latency = default_switch_latency) () =
  {
    clock;
    cost;
    stats;
    switch_latency;
    links = [||];
    names = [||];
    trace = Trace.null;
    fault = None;
  }

let nhosts t = Array.length t.links

let add_host ?name t =
  let id = Array.length t.links in
  let name = match name with Some n -> n | None -> "host" ^ string_of_int id in
  (* The switch hop rides on the access link: every one-way message
     crosses this host's wire and then the fabric. *)
  let cost = { t.cost with Cost.net_latency = t.cost.Cost.net_latency +. t.switch_latency } in
  let link = Link.create ~clock:t.clock ~cost ~stats:t.stats in
  Link.set_trace link t.trace;
  (match t.fault with None -> () | Some f -> Link.set_fault link (Some f));
  t.links <- Array.append t.links [| link |];
  t.names <- Array.append t.names [| name |];
  Stats.incr t.stats "topo.hosts";
  id

let link t h =
  if h < 0 || h >= Array.length t.links then invalid_arg "Topo.link: no such host";
  t.links.(h)

let host_name t h =
  if h < 0 || h >= Array.length t.names then invalid_arg "Topo.host_name: no such host";
  t.names.(h)

let clock t = t.clock
let cost t = t.cost
let stats t = t.stats
let switch_latency t = t.switch_latency

let set_trace t tr =
  t.trace <- tr;
  Array.iter (fun l -> Link.set_trace l tr) t.links

let set_fault t f =
  t.fault <- f;
  Array.iter (fun l -> Link.set_fault l f) t.links

