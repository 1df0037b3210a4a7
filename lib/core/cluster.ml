module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Cost = Simnet.Cost
module Link = Simnet.Link
module Topo = Simnet.Topo
module Rpc = Oncrpc.Rpc
module Drbg = Dcrypto.Drbg
module Dsa = Dcrypto.Dsa
module Assertion = Keynote.Assertion
module Proto = Nfs.Proto

(* The cluster control program: shard-map distribution and replica
   lease management (PROTOCOL.md §11). A separate program number so
   the DisCFS credential program (391063) keeps its procedure space. *)
let cluster_prog = 391064
let cluster_vers = 1
let clusterproc_getmap = 1
let clusterproc_lease = 2
let clusterproc_invalidate = 3

type node = {
  n_index : int;
  n_host : Topo.host;
  n_link : Link.t;
  n_key : Dsa.private_key; (* survives restarts, like a host key *)
  mutable n_server : Server.t;
  mutable n_rpc : Rpc.server;
  n_lease_until : float array; (* per shard; 0 = no lease held *)
  mutable n_peers : Rpc.client option array; (* server-to-server conns *)
  mutable n_restarts : int;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cost : Cost.t;
  topo : Topo.t;
  dev : Ffs.Blockdev.t;
  fs : Ffs.Fs.t; (* shared storage: one volume, N serving frontends *)
  nodes : node array;
  mutable map : Shard_map.t;
  admin : Dsa.private_key;
  drbg : Drbg.t;
  trace : Trace.t;
  sched : Simnet.Sched.t option;
  workers : int option;
  queue_depth : int;
  race : Race.ctx option;
}

let clock t = t.clock
let stats t = t.stats
let sched t = t.sched
let metrics t = t.stats
let trace t = t.trace
let topo t = t.topo
let fs t = t.fs
let map t = t.map
let nservers t = Array.length t.nodes
let dev t = t.dev
let drbg t = t.drbg
let race_ctx t = t.race

let race_monitor t name =
  match t.race with None -> Race.null | Some ctx -> Race.monitor ctx name

let node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Cluster.node: no such server";
  t.nodes.(i)

let node_link t i = (node t i).n_link
let node_rpc t i = (node t i).n_rpc
let node_server t i = (node t i).n_server
let node_restarts t i = (node t i).n_restarts
let server_principal t i = Server.server_principal (node t i).n_server
let admin_principal t = Assertion.principal_of_pub t.admin.Dsa.pub
let admin_identity t = t.admin
let new_identity t = Dsa.generate_key t.drbg
let fork_drbg t ~label = Drbg.fork t.drbg ~label
let cost t = t.cost

(* The replica lease term: one virtual hour. *)
let lease_duration = 3600.

let admin_issue t ~licensees ~conditions ?comment () =
  Assertion.issue ~key:t.admin ~drbg:t.drbg ?comment ~licensees ~conditions ()

(* --- routing --------------------------------------------------------- *)

(* Which ops are pinned to a shard. Data reads go to the owner or a
   leased replica; every mutation (data or namespace — the handle
   [run] authorizes against is the directory for namespace ops) goes
   to the owner alone. Metadata reads are served by any frontend:
   storage is shared, and spreading them is the point of having N
   servers. *)
type route_class = Serve_anywhere | Read_routed | Write_routed

let route_class (op : Nfs.Server.op) =
  match op with
  | Nfs.Server.Getattr | Nfs.Server.Lookup | Nfs.Server.Readdir | Nfs.Server.Readlink
  | Nfs.Server.Statfs | Nfs.Server.Readdirplus ->
    Serve_anywhere
  | Nfs.Server.Read | Nfs.Server.Multiread -> Read_routed
  | Nfs.Server.Write | Nfs.Server.Setattr | Nfs.Server.Create | Nfs.Server.Remove
  | Nfs.Server.Rename | Nfs.Server.Link | Nfs.Server.Symlink | Nfs.Server.Mkdir
  | Nfs.Server.Rmdir ->
    Write_routed

let lease_live t node ~shard = node.n_lease_until.(shard) > Clock.now t.clock

(* Build the signed NFSERR_MOVED reply for a handle this node does
   not serve. Writes are redirected to the owner; reads to a
   deterministic pick among the owner and live-leased replicas
   (excluding this node — we are redirecting precisely because we
   cannot serve). The DSA signature binds handle, target and map
   version so the client can verify the redirect against the key it
   authenticated in IKE before following it. *)
let redirect_reply t node ~(fh : Proto.fh) ~to_owner =
  let ino = fh.Proto.ino in
  let shard_ix = Shard_map.shard_of t.map ~ino in
  let s = Shard_map.shard t.map shard_ix in
  let target =
    if to_owner then s.owner
    else begin
      let live =
        List.filter
          (fun r -> (not (Int.equal r node.n_index)) && lease_live t t.nodes.(r) ~shard:shard_ix)
          s.replicas
      in
      let candidates = if Int.equal s.owner node.n_index then live else s.owner :: live in
      match candidates with
      | [] -> s.owner
      | l -> List.nth l (Shard_map.mix ino mod List.length l)
    end
  in
  let version = Shard_map.version t.map in
  let principal = server_principal t target in
  (* DSA signing is priced like any other signature in the model. *)
  Clock.advance t.clock t.cost.Cost.credential_verify;
  let preimage =
    Proto.redirect_preimage ~ino ~gen:fh.Proto.gen ~target ~version ~principal
  in
  let signature = Dsa.sign ~key:node.n_key t.drbg preimage in
  Stats.incr t.stats "redirect.sent";
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e Proto.nfserr_moved;
  Proto.redirect_encode e
    { Proto.r_target = target; r_version = version; r_principal = principal;
      r_sig = Dsa.sig_encode signature };
  Xdr.Enc.to_string e

let route t node ~conn:_ ~(fh : Proto.fh) ~op =
  match route_class op with
  | Serve_anywhere -> None
  | cls -> (
    let write = match cls with Write_routed -> true | _ -> false in
    let ino = fh.Proto.ino in
    if not (Shard_map.serves t.map ~server:node.n_index ~ino ~write) then
      Some (redirect_reply t node ~fh ~to_owner:write)
    else if write || Int.equal (Shard_map.owner t.map ~ino) node.n_index then None
    else begin
      (* Replica read: only while the lease is live. An expired or
         invalidated lease bounces the read back to the owner. *)
      let shard_ix = Shard_map.shard_of t.map ~ino in
      if lease_live t node ~shard:shard_ix then None
      else begin
        Stats.incr t.stats "topo.lease.expired_serves";
        Some (redirect_reply t node ~fh ~to_owner:true)
      end
    end)

(* --- server-to-server connections ------------------------------------ *)

let peer_conn t ~from ~target =
  let src = node t from in
  match src.n_peers.(target) with
  | Some c -> c
  | None ->
    (* Plaintext with a declared peer principal: the frontends live
       inside the cluster's trust perimeter (in a full deployment
       this pair would run IKE like any client; the authorization
       logic is identical either way, and the lease handlers verify
       the claimed principal against the map). *)
    let c =
      Rpc.connect ~link:(node t target).n_link ~peer:(server_principal t from) ~uid:0
        (node t target).n_rpc
    in
    src.n_peers.(target) <- Some c;
    Stats.incr t.stats "topo.s2s_connects";
    c

(* --- the cluster control program ------------------------------------- *)

let ok_reply e body =
  Xdr.Enc.uint32 e 0;
  body e;
  Ok ()

let err_reply e msg =
  Xdr.Enc.uint32 e 1;
  Xdr.Enc.string e msg;
  Ok ()

let handle_cluster t node ~(conn : Rpc.conn_info) ~proc ~args:d e =
  let ok_reply = ok_reply e and err_reply = err_reply e in
  if proc = 0 then Ok ()
  else if proc = clusterproc_getmap then begin
    (* GETMAP: args = the caller's cached version; the reply carries
       the full map only when the cache is stale, so steady-state
       refresh probes cost a few bytes. *)
    let cached = Xdr.Dec.uint32 d in
    Stats.incr t.stats "topo.getmap";
    ok_reply (fun e ->
        if cached >= Shard_map.version t.map then Xdr.Enc.bool e false
        else begin
          Xdr.Enc.bool e true;
          Shard_map.encode e t.map
        end)
  end
  else if proc = clusterproc_lease then begin
    (* LEASE: a replica asks the shard's owner for (or to renew) its
       read lease. Authenticated: the claimed server index must match
       the connection's principal, and the map must both name this
       node as owner and the caller as replica. *)
    let shard_ix = Xdr.Dec.uint32 d in
    let requester = Xdr.Dec.uint32 d in
    if shard_ix < 0 || shard_ix >= Shard_map.nshards t.map then err_reply "no such shard"
    else if requester < 0 || requester >= Array.length t.nodes then err_reply "no such server"
    else if not (String.equal conn.Rpc.peer (server_principal t requester)) then
      err_reply "principal does not match claimed server"
    else begin
      let s = Shard_map.shard t.map shard_ix in
      if not (Int.equal s.owner node.n_index) then err_reply "not the owner of this shard"
      else if not (List.exists (fun r -> Int.equal r requester) s.replicas) then
        err_reply "caller is not a replica of this shard"
      else begin
        let expiry = Clock.now t.clock +. lease_duration in
        Stats.incr t.stats "topo.lease.grants";
        ok_reply (fun e ->
            Xdr.Enc.uint64 e (Int64.bits_of_float expiry);
            Xdr.Enc.uint32 e (Shard_map.version t.map))
      end
    end
  end
  else if proc = clusterproc_invalidate then begin
    (* INVALIDATE: the owner revokes the replicas' leases on a shard
       it just mutated. The replica drops its lease on the spot;
       subsequent reads redirect to the owner until the lease is
       renewed. *)
    let shard_ix = Xdr.Dec.uint32 d in
    let claimed_owner = Xdr.Dec.uint32 d in
    if shard_ix < 0 || shard_ix >= Shard_map.nshards t.map then err_reply "no such shard"
    else if claimed_owner < 0 || claimed_owner >= Array.length t.nodes then
      err_reply "no such server"
    else if not (String.equal conn.Rpc.peer (server_principal t claimed_owner)) then
      err_reply "principal does not match claimed owner"
    else if not (Int.equal (Shard_map.shard t.map shard_ix).owner claimed_owner) then
      err_reply "caller does not own this shard"
    else begin
      node.n_lease_until.(shard_ix) <- 0.0;
      Stats.incr t.stats "topo.lease.invalidations";
      ok_reply (fun _ -> ())
    end
  end
  else Error Rpc.Proc_unavail

(* A node's process-local shared structures (duplicate-request cache,
   in-flight coalescing map, policy cache) are fresh objects in every
   incarnation, so their race monitors are (re)attached here. *)
let wire_node t node =
  (match t.race with
  | None -> ()
  | Some ctx ->
    Rpc.set_race node.n_rpc ~drc:(Race.monitor ctx "drc")
      ~in_flight:(Race.monitor ctx "rpc.inflight");
    Policy_cache.set_race (Server.cache node.n_server) (Race.monitor ctx "policy"));
  Server.attach_rpc node.n_server node.n_rpc;
  Rpc.register node.n_rpc ~prog:cluster_prog ~vers:cluster_vers (handle_cluster t node);
  Nfs.Server.set_route (Server.nfs node.n_server) (fun ~conn ~fh ~op -> route t node ~conn ~fh ~op)

(* --- lease management ------------------------------------------------ *)

let renew_lease t ~shard ~server =
  let s = Shard_map.shard t.map shard in
  if Int.equal s.owner server then Ok () (* owners need no lease on their own shard *)
  else begin
    let c = peer_conn t ~from:server ~target:s.owner in
    match
      Rpc.call c ~prog:cluster_prog ~vers:cluster_vers ~proc:clusterproc_lease (fun e ->
          Xdr.Enc.uint32 e shard;
          Xdr.Enc.uint32 e server)
    with
    | exception Rpc.Rpc_timeout _ -> Error "lease request timed out"
    | d ->
      if Xdr.Dec.uint32 d <> 0 then Error (Xdr.Dec.string d)
      else begin
        let expiry = Int64.float_of_bits (Xdr.Dec.uint64 d) in
        let _version = Xdr.Dec.uint32 d in
        Xdr.Dec.expect_end d;
        (node t server).n_lease_until.(shard) <- expiry;
        Ok ()
      end
  end

let add_replica t ~shard ~server =
  t.map <- Shard_map.add_replica t.map ~shard ~server;
  renew_lease t ~shard ~server

let remove_replica t ~shard ~server =
  t.map <- Shard_map.remove_replica t.map ~shard ~server;
  (node t server).n_lease_until.(shard) <- 0.0

let reshard t ~shard ~owner =
  t.map <- Shard_map.move t.map ~shard ~owner;
  (node t owner).n_lease_until.(shard) <- 0.0;
  Stats.incr t.stats "topo.reshards"

(* Owner-side write notification: revoke every replica's lease on the
   written shard. Driven from the cluster client's write path (owner
   and client share this process in the simulation); the calls ride
   the owner's server-to-server connections and are charged to the
   owner's wire. *)
let note_write t ~ino =
  let shard_ix = Shard_map.shard_of t.map ~ino in
  let s = Shard_map.shard t.map shard_ix in
  List.iter
    (fun r ->
      let c = peer_conn t ~from:s.owner ~target:r in
      match
        Rpc.call c ~prog:cluster_prog ~vers:cluster_vers ~proc:clusterproc_invalidate (fun e ->
            Xdr.Enc.uint32 e shard_ix;
            Xdr.Enc.uint32 e s.owner)
      with
      | _reply -> ()
      | exception Rpc.Rpc_timeout _ -> Stats.incr t.stats "topo.invalidate_timeouts")
    s.replicas

(* --- construction ---------------------------------------------------- *)

let default_queue_depth = 64
let default_nshards = 32

(* One incarnation of a frontend's RPC endpoint, on the shared clock
   (and worker pool, when concurrent). Construction and crash recovery
   both boot through it. *)
let boot_rpc t =
  let rpc = Rpc.server ~clock:t.clock ~cost:t.cost ~stats:t.stats in
  Rpc.set_trace rpc t.trace;
  (match (t.sched, t.workers) with
  | Some sched, Some w -> Rpc.set_pool rpc ~sched ~workers:w ~queue_depth:t.queue_depth
  | _ -> ());
  rpc

let make ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192)
    ?(cache_size = 128) ?(cache_blocks = 0) ?readahead ?hour ?strict_handles
    ?(seed = "discfs-deploy") ?fault ?(tracing = false) ?workers
    ?(queue_depth = default_queue_depth) ?(racecheck = false) ?tie_seed ?switch_latency
    ?(nshards = default_nshards) ?(servers = 1) () =
  if servers < 1 then invalid_arg "Cluster.make: servers < 1";
  (* One host has no switch hop: the paper's two-host testbed is a
     single wire between server and client. *)
  let switch_latency =
    match switch_latency with
    | Some l -> l
    | None -> if servers = 1 then 0. else Topo.default_switch_latency
  in
  let cost = Cost.default in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let trace =
    if tracing then Trace.create ~metrics:stats ~now:(fun () -> Clock.now clock) ()
    else Trace.null
  in
  let topo = Topo.create ~clock ~cost ~stats ~switch_latency () in
  Topo.set_trace topo trace;
  let dev =
    Ffs.Blockdev.create ~cache_blocks ?readahead ~clock ~cost ~stats ~nblocks ~block_size ()
  in
  Ffs.Blockdev.set_trace dev trace;
  (* One injector for every wire and the disk: hosts added below
     inherit the topology's. *)
  Topo.set_fault topo fault;
  Ffs.Blockdev.set_fault dev fault;
  let fs = Ffs.Fs.create ~dev ~ninodes in
  let drbg = Drbg.create ~seed in
  let admin = Dsa.generate_key drbg in
  (* All host keys first, in index order: the store's policy trusts
     every frontend's key, and pinning the DRBG order keeps the whole
     construction deterministic. *)
  let keys = Array.init servers (fun _ -> Dsa.generate_key drbg) in
  let store =
    Server.create_store ~admin:admin.Dsa.pub
      ~frontends:(Array.to_list (Array.map (fun (k : Dsa.private_key) -> k.Dsa.pub) keys))
      ~trace
  in
  (* A worker count turns the cluster concurrent: a scheduler owns the
     clock and every frontend's RPC server runs a bounded queue.
     Serial clusters get no scheduler. *)
  let sched =
    match workers with
    | None -> None
    | Some _ ->
      let sched = Simnet.Sched.create ~clock in
      Simnet.Sched.attach_clock sched;
      Simnet.Sched.set_tie_seed sched tie_seed;
      Some sched
  in
  (* Race checking needs a scheduler (pids and yield epochs come from
     it); a serial cluster has no interleaving to check. *)
  let race =
    match (racecheck, sched) with
    | true, Some sched ->
      Some
        (Race.create
           ~pid:(fun () -> Simnet.Sched.current_pid sched)
           ~epoch:(fun () -> Simnet.Sched.events_run sched)
           ~annotate:(fun () -> Trace.current trace)
           ())
    | _ -> None
  in
  (* The buffer cache is shared storage and outlives every crash, so
     its monitor is attached once; drops wipe it. *)
  Option.iter
    (fun ctx -> Ffs.Bcache.set_race (Ffs.Blockdev.bcache dev) (Race.monitor ctx "bcache"))
    race;
  (* [boot_rpc] reads only cluster-wide fields, so it can run against
     this node-less shell while the nodes are built. *)
  let shell =
    {
      clock;
      stats;
      cost;
      topo;
      dev;
      fs;
      nodes = [||];
      map = Shard_map.make ~nservers:servers ~nshards;
      admin;
      drbg;
      trace;
      sched;
      workers;
      queue_depth;
      race;
    }
  in
  let nodes =
    Array.init servers (fun i ->
        let host = Topo.add_host ~name:(Printf.sprintf "server%d" i) topo in
        let server =
          Server.create ~fs ~store ~server_key:keys.(i)
            ~drbg:(Drbg.fork drbg ~label:(Printf.sprintf "server-%d" i))
            ~cache_size ?hour ?strict_handles ()
        in
        {
          n_index = i;
          n_host = host;
          n_link = Topo.link topo host;
          n_key = keys.(i);
          n_server = server;
          n_rpc = boot_rpc shell;
          n_lease_until = Array.make nshards 0.0;
          n_peers = Array.make servers None;
          n_restarts = 0;
        })
  in
  let t = { shell with nodes } in
  Array.iter (fun n -> wire_node t n) nodes;
  t

(* Kill one frontend and boot a fresh incarnation. The credential
   store is cluster state and survives; the node's audit trail rides
   through ([Server.restart]); its SAs, policy cache, DRC and every
   lease it held die with the process. The old RPC endpoint keeps
   absorbing datagrams into the void, so in-flight clients time out
   exactly as against a dead host.

   The shared volume reboots with it: the file system reboots in place
   (every frontend keeps its handle on the one [Fs.t], which comes
   back with a cold pointer-block cache) and the buffer cache is
   dropped. With one frontend this is exactly a server reboot; with
   several it cold-boots the volume's memory under the survivors too
   (docs/TOPOLOGY.md). Other nodes' connections to the crashed one are
   dropped so the next control message reconnects to the new
   incarnation. *)
let crash_and_restart t i =
  let n = node t i in
  Rpc.shutdown n.n_rpc;
  (* Packets parked in the link's reorder hold slots die with the
     process — flush them now so they are accounted as drops instead
     of lingering (invisibly) into the next incarnation. *)
  ignore (Link.quiesce n.n_link);
  Ffs.Fs.reboot t.fs;
  Ffs.Blockdev.drop_cache t.dev;
  n.n_restarts <- n.n_restarts + 1;
  Stats.incr t.stats "server.restarts";
  n.n_server <-
    Server.restart n.n_server
      ~drbg:(Drbg.fork t.drbg ~label:(Printf.sprintf "server-%d-restart-%d" i n.n_restarts));
  n.n_rpc <- boot_rpc t;
  Array.fill n.n_lease_until 0 (Array.length n.n_lease_until) 0.0;
  wire_node t n;
  (* Everyone else must reconnect to the new incarnation. *)
  Array.iter (fun other -> other.n_peers.(i) <- None) t.nodes
