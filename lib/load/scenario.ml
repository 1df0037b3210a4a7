(* The three traffic-realism scenario programs: a latency-vs-offered-
   load sweep that locates the knee, a boot storm (hundreds of clients
   walking one read-only subtree at once), and a long-horizon churn
   run with joins, leaves, a mid-run server crash and SA rekeys under
   load. Everything runs on the virtual clock from seeded state, so a
   whole "day" of traffic is deterministic and replayable. *)

module Sched = Simnet.Sched
module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Arrival = Simnet.Arrival
module Metrics = Trace.Metrics
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client

(* The shared op mix, same 1:2:1 GETATTR/READ/WRITE blend as the
   concurrency benchmark, against a per-client 8 KB file. *)
let mixed_op c fh i =
  match i mod 4 with
  | 0 -> ignore (CC.write c fh ~off:(i * 1024 mod 8192) (String.make 1024 'y'))
  | 1 -> ignore (CC.getattr c fh)
  | _ -> ignore (CC.read c fh ~off:(i * 2048 mod 8192) ~count:2048)

(* Logical end-state fingerprint: the directory tree walked directly
   on the server's filesystem — names, kinds, sizes and content
   digests. Independent of inode numbering and block placement, so
   tie-order perturbation of the schedule must leave it bit-identical
   (the race_explore harness and the QCheck equivalence properties
   both pin this). *)
let fs_fingerprint fs =
  let buf = Buffer.create 4096 in
  let rec walk ino path =
    List.iter
      (fun (name, child) ->
        if name <> "." && name <> ".." then
          let p = path ^ "/" ^ name in
          let a = Ffs.Fs.getattr fs child in
          match a.Ffs.Inode.a_kind with
          | Ffs.Inode.Dir ->
            Buffer.add_string buf (Printf.sprintf "d %s\n" p);
            walk child p
          | Ffs.Inode.Symlink ->
            Buffer.add_string buf
              (Printf.sprintf "l %s -> %s\n" p (Ffs.Fs.readlink fs child))
          | Ffs.Inode.Reg ->
            let data = Ffs.Fs.read fs child ~off:0 ~len:a.Ffs.Inode.a_size in
            Buffer.add_string buf
              (Printf.sprintf "f %s %d %s\n" p a.Ffs.Inode.a_size
                 (Dcrypto.Sha1.hex data)))
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Ffs.Fs.readdir fs ino))
  in
  walk (Ffs.Fs.root fs) "";
  Dcrypto.Sha1.hex (Buffer.contents buf)

let race_total d =
  match Cluster.race_ctx d with None -> 0 | Some ctx -> Race.total_reports ctx

let attach_with_file d ~uid ?sa_lifetime ?retry name =
  let c = CC.attach d ~identity:(Cluster.admin_identity d) ~uid ?sa_lifetime ?retry () in
  let fh, _, _ = CC.create c ~dir:(CC.root c) name () in
  CC.write_all c fh (String.make 8192 'x');
  (c, fh)

(* ------------------------------------------------------------------ *)
(* Latency vs offered load                                             *)
(* ------------------------------------------------------------------ *)

type sweep_point = {
  sp_rate : float;
  sp_offered : int;
  sp_completed : int;
  sp_failed : int;
  sp_makespan : float;
  sp_throughput : float;
  sp_summary : Slo.summary;
  sp_qpeak : int;
  sp_rejects : int;
  sp_retrans : int;
}

let sweep_one ~seed ~clients ~workers ~queue_depth ~duration rate =
  let d = Cluster.make ~workers ~queue_depth ~seed () in
  let sched = Option.get (Cluster.sched d) in
  let conns =
    Array.init clients (fun i ->
        attach_with_file d ~uid:i (Printf.sprintf "c%d.dat" i))
  in
  let ops = max 1 (int_of_float (rate *. duration)) in
  let arrivals =
    Arrival.create
      ~seed:(Printf.sprintf "%s-r%g" seed rate)
      (Arrival.Poisson { rate })
  in
  let gen =
    Gen.offer ~sched ~arrivals ~ops ~channels:clients
      ~op:(fun i ->
        let c, fh = conns.(i mod clients) in
        try
          mixed_op c fh i;
          true
        with Oncrpc.Rpc.Rpc_timeout _ -> false)
      ()
  in
  Sched.run sched;
  let get k = Stats.get (Cluster.stats d) k in
  {
    sp_rate = rate;
    sp_offered = gen.Gen.offered;
    sp_completed = gen.Gen.completed;
    sp_failed = gen.Gen.failed;
    sp_makespan = Gen.makespan gen;
    sp_throughput = Gen.throughput gen;
    sp_summary = Slo.of_histogram gen.Gen.latencies;
    sp_qpeak = Oncrpc.Rpc.queue_peak (Cluster.node_rpc d 0);
    sp_rejects = get "rpc.queue_rejects";
    sp_retrans = get "rpc.retransmits";
  }

let sweep ?(seed = "slo-sweep") ?(clients = 8) ?(workers = 4)
    ?(queue_depth = 64) ?(duration = 20.0) ~rates () =
  let points =
    List.map (sweep_one ~seed ~clients ~workers ~queue_depth ~duration) rates
  in
  let knee =
    Slo.knee
      (List.map (fun p -> (p.sp_rate, p.sp_throughput, p.sp_failed)) points)
  in
  (points, knee)

(* ------------------------------------------------------------------ *)
(* Boot storm                                                          *)
(* ------------------------------------------------------------------ *)

type storm_report = {
  st_clients : int;
  st_tree_files : int;
  st_ops : int;
  st_failed : int;
  st_makespan : float;
  st_spread : float;
  st_summary : Slo.summary;
  st_bcache_hits : int;
  st_bcache_misses : int;
  st_policy_hits : int;
  st_policy_queries : int;
  st_qpeak : int;
  st_rejects : int;
  st_retrans : int;
  st_fingerprint : string;
  st_races : int;
}

(* Every client walks the same read-only subtree at once — the
   morning-login convoy. All LOOKUP/READDIR/GETATTR/READ, so the
   buffer cache and the policy memo should turn N walks into roughly
   one disk walk; per-client finish spread exposes worker-pool
   fairness (a starved client finishes long after the pack). *)
let boot_storm ?(seed = "slo-storm") ?(clients = 200) ?(dirs = 4)
    ?(files_per_dir = 4) ?(workers = 4) ?(queue_depth = 64) ?tie_seed
    ?(racecheck = false) () =
  let d =
    Cluster.make ~workers ~queue_depth ~seed ~cache_blocks:4096 ~readahead:8
      ~cache_size:256 ?tie_seed ~racecheck ()
  in
  let sched = Option.get (Cluster.sched d) in
  let clock = Cluster.clock d in
  (* The admin builds the shared tree once, serially. *)
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  for dir = 0 to dirs - 1 do
    let dh, _, _ = CC.mkdir admin ~dir:(CC.root admin) (Printf.sprintf "d%d" dir) () in
    for f = 0 to files_per_dir - 1 do
      let fh, _, _ = CC.create admin ~dir:dh (Printf.sprintf "f%d.dat" f) () in
      CC.write_all admin fh (String.make 2048 'b')
    done
  done;
  let walkers =
    Array.init clients (fun i -> CC.attach d ~identity:(Cluster.admin_identity d) ~uid:(1 + i) ())
  in
  let hist = Metrics.make_histogram Metrics.default_buckets in
  let ops = ref 0 and failed = ref 0 in
  let t0 = Clock.now clock in
  let first_finish = ref infinity and last_finish = ref 0.0 in
  Array.iter
    (fun c ->
      (* discfs-lint: allow races "each walker owns its client; the shared counters and min/max marks are read-modify-written inside one slice, never across a yield" *)
      Sched.spawn sched (fun () ->
          let step f =
            let t = Clock.now clock in
            (try
               f ();
               incr ops;
               Metrics.observe hist (Clock.now clock -. t)
             with Oncrpc.Rpc.Rpc_timeout _ -> incr failed)
          in
          for dir = 0 to dirs - 1 do
            let dh = ref None in
            step (fun () ->
                let fh, _ = CC.lookup c (CC.root c) (Printf.sprintf "d%d" dir) in
                dh := Some fh);
            match !dh with
            | None -> ()
            | Some dh ->
              step (fun () -> ignore (CC.readdir c dh));
              for f = 0 to files_per_dir - 1 do
                let fh = ref None in
                step (fun () ->
                    let h, _ = CC.lookup c dh (Printf.sprintf "f%d.dat" f) in
                    fh := Some h);
                match !fh with
                | None -> ()
                | Some fh ->
                  step (fun () -> ignore (CC.getattr c fh));
                  step (fun () -> ignore (CC.read c fh ~off:0 ~count:2048))
              done
          done;
          let fin = Clock.now clock in
          if fin < !first_finish then first_finish := fin;
          if fin > !last_finish then last_finish := fin))
    walkers;
  Sched.run sched;
  let get k = Stats.get (Cluster.stats d) k in
  {
    st_clients = clients;
    st_tree_files = dirs * files_per_dir;
    st_ops = !ops;
    st_failed = !failed;
    st_makespan = !last_finish -. t0;
    st_spread =
      (if !first_finish = infinity then 0.0 else !last_finish -. !first_finish);
    st_summary = Slo.of_histogram hist;
    st_bcache_hits = get "bcache.hits";
    st_bcache_misses = get "bcache.misses";
    st_policy_hits = get "keynote.cache_hits";
    st_policy_queries = get "keynote.queries";
    st_qpeak = Oncrpc.Rpc.queue_peak (Cluster.node_rpc d 0);
    st_rejects = get "rpc.queue_rejects";
    st_retrans = get "rpc.retransmits";
    st_fingerprint = fs_fingerprint (Cluster.fs d);
    st_races = race_total d;
  }

(* ------------------------------------------------------------------ *)
(* Long-horizon churn                                                  *)
(* ------------------------------------------------------------------ *)

type churn_spec = {
  cs_seed : string;
  cs_rate : float;
  cs_duration : float;
  cs_initial_clients : int;
  cs_join_every : float;
  cs_leave_every : float;
  cs_crash_at : float option;
  cs_sa_lifetime : int option;
  cs_workers : int;
  cs_queue_depth : int;
  cs_retry : Oncrpc.Rpc.retry option;
}

let default_churn =
  {
    cs_seed = "slo-churn";
    cs_rate = 2.0;
    cs_duration = 7200.0;
    cs_initial_clients = 6;
    cs_join_every = 300.0;
    cs_leave_every = 450.0;
    cs_crash_at = Some 3600.0;
    cs_sa_lifetime = Some 64;
    cs_workers = 4;
    cs_queue_depth = 64;
    cs_retry = None;
  }

type churn_report = {
  ch_offered : int;
  ch_completed : int;
  ch_failed : int;
  ch_hist_count : int;
  ch_summary : Slo.summary;
  ch_makespan : float;
  ch_throughput : float;
  ch_joins : int;
  ch_leaves : int;
  ch_crashes : int;
  ch_attaches : int;
  ch_detaches : int;
  ch_reattaches : int;
  ch_rekeys : int;
  ch_executed : int;
  ch_client_ids : (int * int) list;
  ch_final_active : int;
  ch_fingerprint : string;
  ch_races : int;
}

type member = {
  m_client : CC.t;
  m_fh : Nfs.Proto.fh;
  m_box : (unit -> unit) option Sched.Mailbox.t;
  mutable m_epoch : int;
}

(* Membership changes while load keeps arriving: joins attach a fresh
   client mid-run, leaves drain a member's queued work then detach it,
   and the optional crash kills the server under traffic — members
   discover the new incarnation lazily, on their first timeout, and
   re-home inside that call (the cluster client's recovery). Client-id
   allocation is per-incarnation, so the uniqueness law the tests pin
   is over (incarnation, id) pairs, each recorded when its connection
   first completes an op. *)
let churn ?(spec = default_churn) ?tie_seed ?(racecheck = false) () =
  let s = spec in
  if s.cs_initial_clients < 1 then invalid_arg "churn: need a client";
  let d =
    Cluster.make ~workers:s.cs_workers ~queue_depth:s.cs_queue_depth
      ~seed:s.cs_seed ?tie_seed ~racecheck ()
  in
  let sched = Option.get (Cluster.sched d) in
  let clock = Cluster.clock d in
  let ids = ref [] in
  let joins = ref 0 and leaves = ref 0 in
  let active : member list ref = ref [] in
  let mk_member ~uid name =
    let c, fh =
      attach_with_file d ~uid ?sa_lifetime:s.cs_sa_lifetime ?retry:s.cs_retry
        name
    in
    let epoch = Cluster.node_restarts d 0 in
    ids := (epoch, CC.client_id c) :: !ids;
    { m_client = c; m_fh = fh; m_box = Sched.Mailbox.create (); m_epoch = epoch }
  in
  let ops = max 1 (int_of_float (s.cs_rate *. s.cs_duration)) in
  let arrivals =
    Arrival.create ~seed:s.cs_seed (Arrival.Poisson { rate = s.cs_rate })
  in
  let times = Arrival.times arrivals ~n:ops in
  let gen = Gen.create ~ops () in
  let do_op m i started =
    let ok =
      (* A timeout against a newer incarnation re-homes the member and
         re-issues the op inside the call; only a success proves the
         new connection. *)
      try
        mixed_op m.m_client m.m_fh i;
        if Cluster.node_restarts d 0 > m.m_epoch then begin
          m.m_epoch <- Cluster.node_restarts d 0;
          ids := (m.m_epoch, CC.client_id m.m_client) :: !ids
        end;
        true
      with Oncrpc.Rpc.Rpc_timeout _ | CC.Discfs_error _ -> false
    in
    Gen.complete gen clock ~started ok
  in
  (* Initial population, serially: setup spends virtual time, so the
     arrival clock's origin is taken only once it is done. *)
  for i = 0 to s.cs_initial_clients - 1 do
    let m = mk_member ~uid:i (Printf.sprintf "c%d.dat" i) in
    active := !active @ [ m ]
  done;
  let base = Clock.now clock in
  let last_arrival = base +. times.(ops - 1) in
  let horizon = times.(ops - 1) +. 7200.0 in
  gen.Gen.first_arrival <- base +. times.(0);
  let spawn_drain m =
    (* discfs-lint: allow races "the drain is the sole consumer of its member's mailbox; detach only runs after the member left the active list" *)
    Sched.spawn sched (fun () ->
        let rec loop () =
          match Sched.Mailbox.take sched m.m_box ~timeout:horizon with
          | Some (Some job) ->
            job ();
            loop ()
          | Some None -> CC.detach m.m_client
          | None -> failwith "Scenario.churn: drain starved"
        in
        loop ())
  in
  List.iter spawn_drain !active;
  (* Arrivals: each picks an active member round-robin at its own
     instant, so membership changes steer traffic as they would a
     load balancer's backend list. *)
  for i = 0 to ops - 1 do
    let ti = base +. times.(i) in
    (* discfs-lint: allow races "the membership list is read once in the arrival's own slice; routing to a just-left member is absorbed by its still-draining mailbox" *)
    Sched.spawn_at sched ti (fun () ->
        match !active with
        | [] -> Gen.complete gen clock ~started:ti false
        | l ->
          let m = List.nth l (i mod List.length l) in
          Sched.Mailbox.push sched m.m_box (Some (fun () -> do_op m i ti)))
  done;
  (* Joins. A join mid-crash can time out; it is skipped, not fatal. *)
  if s.cs_join_every > 0.0 then begin
    let t = ref s.cs_join_every in
    let k = ref 0 in
    while !t < s.cs_duration do
      let at = base +. !t and j = !k in
      (* discfs-lint: allow races "the join counter bump and list append run in one slice after the attach's yields complete" *)
      Sched.spawn_at sched at (fun () ->
          match
            try
              Some
                (mk_member ~uid:(1000 + j) (Printf.sprintf "j%d.dat" j))
            with Oncrpc.Rpc.Rpc_timeout _ | CC.Discfs_error _ -> None
          with
          | None -> ()
          | Some m ->
            incr joins;
            active := !active @ [ m ];
            spawn_drain m);
      t := !t +. s.cs_join_every;
      incr k
    done
  end;
  (* Leaves: the oldest member drains its queue and detaches. *)
  if s.cs_leave_every > 0.0 then begin
    let t = ref s.cs_leave_every in
    while !t < s.cs_duration do
      let at = base +. !t in
      (* discfs-lint: allow races "pop-and-signal runs in one slice; the drained member keeps consuming its own mailbox until the stop token" *)
      Sched.spawn_at sched at (fun () ->
          match !active with
          | m :: (_ :: _ as rest) ->
            incr leaves;
            active := rest;
            Sched.Mailbox.push sched m.m_box None
          | _ -> ());
      t := !t +. s.cs_leave_every
    done
  end;
  (match s.cs_crash_at with
  | None -> ()
  | Some t ->
    (* discfs-lint: allow races "the crash process is the only mutator of the deployment's incarnation fields; clients observe the swap only through RPC timeouts" *)
    Sched.spawn_at sched (base +. t) (fun () -> Cluster.crash_and_restart d 0));
  (* End of horizon: stop every member still active. Queued jobs sit
     ahead of the stop in each mailbox, so nothing offered is lost. *)
  (* discfs-lint: allow races "horizon stop: broadcast and list clear complete in one slice" *)
  Sched.spawn_at sched (last_arrival +. 60.0) (fun () ->
      List.iter (fun m -> Sched.Mailbox.push sched m.m_box None) !active;
      active := []);
  let final_active = ref 0 in
  (* discfs-lint: allow races "single snapshot read one virtual second before the horizon stop" *)
  Sched.spawn_at sched (last_arrival +. 59.0) (fun () ->
      final_active := List.length !active);
  Sched.run sched;
  let get k = Stats.get (Cluster.stats d) k in
  let service = Metrics.histogram (Cluster.metrics d) "rpc.queue.service" in
  {
    ch_offered = gen.Gen.offered;
    ch_completed = gen.Gen.completed;
    ch_failed = gen.Gen.failed;
    ch_hist_count = Metrics.count gen.Gen.latencies;
    ch_summary = Slo.of_histogram gen.Gen.latencies;
    ch_makespan = Gen.makespan gen;
    ch_throughput = Gen.throughput gen;
    ch_joins = !joins;
    ch_leaves = !leaves;
    ch_crashes = get "server.restarts";
    ch_attaches = get "client.attaches";
    ch_detaches = get "client.detaches";
    ch_reattaches = get "client.reattaches";
    ch_rekeys = get "ike.rekeys";
    ch_executed = Metrics.count service;
    ch_client_ids = List.rev !ids;
    ch_final_active = !final_active;
    ch_fingerprint = fs_fingerprint (Cluster.fs d);
    ch_races = race_total d;
  }
