(* mixed: an open loop of 8 KB GETATTR/READ/WRITE (1:2:1) at a fixed
   Poisson rate.

   Arrivals go to 32 clients on four frontends, each with eight
   private 64 KB files: 16 MB against a 512-block (4 MB) buffer cache,
   so the mix is disk-bound. Shards 0-3 carry one leased read replica
   each (leases are renewed every virtual second and revoked by every
   write to the shard), and one unreplicated shard moves owner every
   2.5 virtual seconds. A client's ops run one at a time in arrival
   order; latency runs from the scheduled arrival, so queueing behind
   a slow op counts. Every READ must equal a per-block model of the
   client's own completed writes. *)

open Fixture

let clients = 32
let files_per_client = 8
let file_blocks = 8
let block = 8192
let cache_blocks = 512
let rate = 800.
let replicated_shards = 4
let lease_every = 1.0
let reshard_every = 2.5

(* Arrivals in the virtual window, and how many more are always
   generated behind it; past that, arrivals continue in chunks while
   the wall budget lasts. *)
let window = 12000
let margin = 800
let chunk = 400

type kind = Getattr | Read | Write

type op = { k : int; due : float; file : int; blk : int; kind : kind }

type client = {
  cc : CC.t;
  files : Nfs.Proto.fh array;
  model : Bytes.t array;  (** what each file must hold *)
  queue : op Queue.t;
  mutable busy : bool;
}

type t = {
  cluster : Cluster.t;
  seed : int;
  clients : client array;
}

let initial_contents rng = Bytes.init (file_blocks * block) (fun _ -> Char.chr (97 + Random.State.int rng 26))

let setup ~seed ~spans ~tracing =
  let cluster = Meter.span spans "setup.cluster" (fun () -> make_cluster ~tracing ~cache_blocks) in
  let rng = rng ~workload:"mixed" ~seed in
  let files =
    Meter.span spans "setup.fs_build" (fun () ->
        let fs = Cluster.fs cluster in
        let top = mkdir fs ~dir:(Fs.root fs) "mix" in
        Array.init clients (fun i ->
            let dir = mkdir fs ~dir:top (Printf.sprintf "c%02d" i) in
            Array.init files_per_client (fun f ->
                let model = initial_contents rng in
                (add_file fs ~dir (Printf.sprintf "f%d" f) (Bytes.to_string model), model))))
  in
  Meter.span spans "setup.cluster" (fun () ->
      let map = Cluster.map cluster in
      for shard = 0 to replicated_shards - 1 do
        let owner = (Discfs.Shard_map.shard map shard).Discfs.Shard_map.owner in
        match Cluster.add_replica cluster ~shard ~server:((owner + 1) mod servers) with
        | Ok () -> ()
        | Error e -> Report.fail "mixed: replica on shard %d: %s" shard e
      done);
  let drbg = drbg ~workload:"mixed" ~seed in
  let clients =
    Meter.span spans "setup.attach" (fun () ->
        Array.mapi
          (fun i fs ->
            let inos = Array.to_list (Array.map (fun ((fh : Nfs.Proto.fh), _) -> fh.ino) fs) in
            let issue identity =
              [ Cluster.admin_issue cluster ~licensees:(licensee identity) ~conditions:(grant ~inos "RW") () ]
            in
            let cc, _ = onboard cluster ~drbg ~uid:(3000 + i) ~home:(i mod servers) ~issue in
            { cc; files = Array.map fst fs; model = Array.map snd fs; queue = Queue.create (); busy = false })
          files)
  in
  { cluster; seed; clients }

let check_read cl (op : op) data =
  if not (String.equal data (Bytes.sub_string cl.model.(op.file) (op.blk * block) block)) then
    Report.fail "mixed: op %d read stale or foreign data (file %d block %d)" op.k op.file op.blk

let write_payload k =
  let b = Bytes.make block (Char.chr (65 + (k mod 26))) in
  Bytes.blit_string (Printf.sprintf "op %d" k) 0 b 0 (String.length (Printf.sprintf "op %d" k));
  b

let execute cl (op : op) =
  let fh = cl.files.(op.file) in
  match op.kind with
  | Getattr ->
    let a = CC.getattr cl.cc fh in
    if a.Nfs.Proto.size <> file_blocks * block then Report.fail "mixed: op %d bad size" op.k;
    0
  | Read ->
    let _, data = CC.read cl.cc fh ~off:(op.blk * block) ~count:block in
    check_read cl op data;
    String.length data
  | Write ->
    let data = write_payload op.k in
    ignore (CC.write cl.cc fh ~off:(op.blk * block) (Bytes.unsafe_to_string data));
    Bytes.blit data 0 cl.model.(op.file) (op.blk * block) block;
    0

(* Warm pass: every client reads each of its files once, which opens
   its connections to the owners and replicas and fills the policy
   memos. *)
let warm st ~spans =
  Meter.span spans "setup.warm" (fun () ->
      let s = sched st.cluster in
      Array.iter
        (fun cl ->
          Simnet.Sched.spawn s (fun () ->
              Array.iteri
                (fun f _ ->
                  let _, data = CC.read cl.cc cl.files.(f) ~off:0 ~count:block in
                  check_read cl { k = -1; due = 0.; file = f; blk = 0; kind = Read } data)
                cl.files))
        st.clients;
      Simnet.Sched.run s)

type progress = {
  mutable vlat : float list;
  mutable outstanding : int;  (** window ops not yet complete *)
  mutable file_bytes : int;
  mutable window : Outcome.window option;
  mutable stopping : bool;
}

let run st ~seconds ~window_only =
  let c = st.cluster in
  let s = sched c in
  let w = open_windows c in
  let p =
    { vlat = []; outstanding = window; file_bytes = 0; window = None;
      stopping = false }
  in
  let rec drain cl =
    match Queue.take_opt cl.queue with
    | None -> cl.busy <- false
    | Some op ->
      let bytes = execute cl op in
      completed w;
      if op.k < window then begin
        p.vlat <- (vnow c -. op.due) :: p.vlat;
        p.file_bytes <- p.file_bytes + bytes;
        p.outstanding <- p.outstanding - 1;
        if p.outstanding = 0 then
          p.window <- Some (close_window c w ~vlat:p.vlat ~file_bytes:p.file_bytes)
      end;
      drain cl
  in
  let arrivals =
    Simnet.Arrival.create ~seed:(Printf.sprintf "perfbench/mixed/%d" st.seed) (Poisson { rate })
  in
  let rng = rng ~workload:"mixed-ops" ~seed:st.seed in
  (* Arrival [k] is fixed by the seed alone. Past the window and its
     margin, the generator may stop at a chunk boundary once every
     window op has completed and the wall budget is spent; nothing the
     window measured can depend on that decision. *)
  let rec arrive k due =
    let cl = st.clients.(Random.State.int rng clients) in
    let file = Random.State.int rng files_per_client in
    let blk = Random.State.int rng file_blocks in
    let kind = match Random.State.int rng 4 with 0 -> Getattr | 3 -> Write | _ -> Read in
    Queue.push { k; due; file; blk; kind } cl.queue;
    if not cl.busy then begin
      cl.busy <- true;
      Simnet.Sched.spawn s (fun () -> drain cl)
    end;
    let next = k + 1 in
    if
      next >= window + margin
      && next mod chunk = 0
      && p.outstanding = 0
      && (window_only || wall_spent w ~seconds)
    then p.stopping <- true
    else
      let due' = due +. Simnet.Arrival.next arrivals in
      ignore (Simnet.Sched.schedule_at s due' (fun () -> arrive next due'))
  in
  let rec every dt f =
    ignore
      (Simnet.Sched.schedule_after s dt (fun () ->
           if not p.stopping then begin
             f ();
             every dt f
           end))
  in
  let shard_owner shard = (Discfs.Shard_map.shard (Cluster.map c) shard).Discfs.Shard_map.owner in
  every lease_every (fun () ->
      Simnet.Sched.spawn s (fun () ->
          for shard = 0 to replicated_shards - 1 do
            List.iter
              (fun server -> ignore (Cluster.renew_lease c ~shard ~server))
              (Discfs.Shard_map.shard (Cluster.map c) shard).Discfs.Shard_map.replicas
          done));
  let moves = ref 0 in
  every reshard_every (fun () ->
      let movable = Discfs.Shard_map.nshards (Cluster.map c) - replicated_shards in
      let shard = replicated_shards + (!moves mod movable) in
      incr moves;
      Cluster.reshard c ~shard ~owner:((shard_owner shard + 1) mod servers));
  let first = vnow c +. Simnet.Arrival.next arrivals in
  ignore (Simnet.Sched.schedule_at s first (fun () -> arrive 0 first));
  Simnet.Sched.run s;
  finish w ~window:p.window
