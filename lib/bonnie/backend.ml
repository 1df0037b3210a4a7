module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats
module Proto = Nfs.Proto

type handle = Ino of int | Fh of Proto.fh

type t = {
  label : string;
  clock : Clock.t;
  stats : Stats.t;
  cost : Cost.t;
  fs : Ffs.Fs.t;
  root : handle;
  mkdir : handle -> string -> handle;
  create : handle -> string -> handle;
  write : handle -> off:int -> string -> unit;
  read : handle -> off:int -> len:int -> string;
  read_whole : handle -> string;
  readdir : handle -> string list;
  lookup : handle -> string -> handle;
  remove : handle -> string -> unit;
}

let handle_of_ino ino = Ino ino

let to_ino = function Ino i -> i | Fh fh -> fh.Proto.ino

let strip_dots names = List.filter (fun n -> n <> "." && n <> "..") names

(* Page-at-a-time whole-file read: the fallback for backends without
   a batched read procedure (local FFS and plain NFS, which is
   NFSv2-shaped and has no compounds). *)
let chunked_read_whole read h =
  let buf = Buffer.create 8192 in
  let rec go off =
    let data = read h ~off ~len:8192 in
    if data <> "" then begin
      Buffer.add_string buf data;
      if String.length data = 8192 then go (off + 8192)
    end
  in
  go 0;
  Buffer.contents buf

(* --- local FFS ------------------------------------------------------ *)

let ffs_local ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let cost = Cost.local_only in
  let dev = Ffs.Blockdev.create ~clock ~cost ~stats ~nblocks ~block_size () in
  let fs = Ffs.Fs.create ~dev ~ninodes in
  let syscall () = Clock.advance clock cost.Cost.syscall in
  let read h ~off ~len =
    syscall ();
    Ffs.Fs.read fs (to_ino h) ~off ~len
  in
  {
    label = "FFS";
    clock;
    stats;
    cost;
    fs;
    root = Ino (Ffs.Fs.root fs);
    mkdir =
      (fun dir name ->
        syscall ();
        Ino (Ffs.Fs.mkdir fs (to_ino dir) name ~perms:0o755 ~uid:0));
    create =
      (fun dir name ->
        syscall ();
        Ino (Ffs.Fs.create_file fs (to_ino dir) name ~perms:0o644 ~uid:0));
    write =
      (fun h ~off data ->
        syscall ();
        Ffs.Fs.write fs (to_ino h) ~off data);
    read;
    read_whole = chunked_read_whole read;
    readdir =
      (fun h ->
        syscall ();
        strip_dots (List.map fst (Ffs.Fs.readdir fs (to_ino h))));
    lookup =
      (fun dir name ->
        syscall ();
        Ino (Ffs.Fs.lookup fs (to_ino dir) name));
    remove =
      (fun dir name ->
        syscall ();
        Ffs.Fs.remove fs (to_ino dir) name);
  }

(* --- shared remote plumbing ------------------------------------------ *)

let remote_ops ~label ~clock ~stats ~cost ~fs ~(nfs : Nfs.Client.t) ~root =
  let syscall () = Clock.advance clock cost.Cost.syscall in
  let to_fh = function
    | Fh fh -> fh
    | Ino ino -> { Proto.ino; gen = Ffs.Fs.generation fs ino }
  in
  let read h ~off ~len =
    syscall ();
    snd (Nfs.Client.read nfs (to_fh h) ~off ~count:len)
  in
  {
    label;
    clock;
    stats;
    cost;
    fs;
    root;
    mkdir =
      (fun dir name ->
        syscall ();
        let fh, _ = Nfs.Client.mkdir nfs (to_fh dir) name Proto.sattr_none in
        Fh fh);
    create =
      (fun dir name ->
        syscall ();
        let fh, _ = Nfs.Client.create_file nfs (to_fh dir) name Proto.sattr_none in
        Fh fh);
    write =
      (fun h ~off data ->
        syscall ();
        ignore (Nfs.Client.write nfs (to_fh h) ~off data));
    read;
    read_whole = chunked_read_whole read;
    readdir =
      (fun h ->
        syscall ();
        strip_dots (List.map fst (Nfs.Client.readdir nfs (to_fh h))));
    lookup =
      (fun dir name ->
        syscall ();
        let fh, _ = Nfs.Client.lookup nfs (to_fh dir) name in
        Fh fh);
    remove =
      (fun dir name ->
        syscall ();
        Nfs.Client.remove nfs (to_fh dir) name);
  }

(* --- CFS-NE ----------------------------------------------------------- *)

let cfs_ne ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192) () =
  let d = Cfs.Cfs_ne.deploy ~nblocks ~block_size ~ninodes () in
  let nfs, root = Cfs.Cfs_ne.connect d () in
  remote_ops ~label:"CFS-NE" ~clock:d.Cfs.Cfs_ne.clock ~stats:d.Cfs.Cfs_ne.stats
    ~cost:Cost.default ~fs:d.Cfs.Cfs_ne.fs ~nfs ~root:(Fh root)

(* --- DisCFS ------------------------------------------------------------ *)

(* DisCFS testbeds are remembered by their (physically unique) clock
   so ablation benches and tests can reach what sits behind the
   uniform surface. *)
type testbed = Single of Discfs.Deploy.t | Sharded of Discfs.Cluster.t * Discfs.Cluster_client.t

let testbeds : (Clock.t * testbed) list ref = ref []
let testbed t = List.find_opt (fun (clock, _) -> clock == t.clock) !testbeds |> Option.map snd
let attr_caches : (Clock.t * Nfs.Cache.t) list ref = ref []

let discfs ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192) ?(cache_size = 128)
    ?cache_blocks ?readahead ?(attr_cache = false) ?attr_ttl ?name_ttl ?(compound = true)
    ?cipher ?fault ?retry ?tracing () =
  let d =
    Discfs.Deploy.make ~nblocks ~block_size ~ninodes ~cache_size ?cache_blocks ?readahead
      ?fault ?tracing ()
  in
  let bob = Discfs.Cluster.new_identity d in
  let client = Discfs.Deploy.attach d ~identity:bob ?cipher ?retry () in
  (* The administrator grants the benchmark user full rights over the
     volume, as the paper's evaluation setup does implicitly. *)
  let cred =
    Discfs.Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (Discfs.Client.principal client))
      ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ~comment:"benchmark user" ()
  in
  (match Discfs.Client.submit_credential client cred with
  | Ok _ -> ()
  | Error e -> failwith ("credential submission failed: " ^ e));
  testbeds := (Discfs.Cluster.clock d, Single d) :: !testbeds;
  let nfs = Discfs.Client.nfs client in
  let ops =
    remote_ops ~label:"DisCFS" ~clock:(Discfs.Cluster.clock d) ~stats:(Discfs.Cluster.stats d)
      ~cost:Cost.default ~fs:(Discfs.Cluster.fs d) ~nfs
      ~root:(Fh (Discfs.Client.root client))
  in
  if not attr_cache then ops
  else begin
    (* Route name resolution and reads through the client-side NFS
       cache: repeated lookups within the TTL skip the wire (and the
       server's policy check) entirely. *)
    let cache =
      Nfs.Cache.create ~client:nfs ~clock:(Discfs.Cluster.clock d) ?attr_ttl ?name_ttl ()
    in
    Nfs.Cache.set_trace cache (Discfs.Cluster.trace d);
    Nfs.Cache.set_race cache (Discfs.Cluster.race_monitor d "nfs.cache");
    attr_caches := (Discfs.Cluster.clock d, cache) :: !attr_caches;
    let syscall () = Clock.advance (Discfs.Cluster.clock d) Cost.default.Cost.syscall in
    let to_fh fs = function
      | Fh fh -> fh
      | Ino ino -> { Proto.ino; gen = Ffs.Fs.generation fs ino }
    in
    let read h ~off ~len =
      syscall ();
      snd (Nfs.Cache.read cache (to_fh ops.fs h) ~off ~count:len)
    in
    let cached =
      {
        ops with
        lookup =
          (fun dir name ->
            syscall ();
            let fh, _ = Nfs.Cache.lookup cache (to_fh ops.fs dir) name in
            Fh fh);
        read;
        read_whole = chunked_read_whole read;
        write =
          (fun h ~off data ->
            syscall ();
            ignore (Nfs.Cache.write cache (to_fh ops.fs h) ~off data));
        remove =
          (fun dir name ->
            syscall ();
            Nfs.Cache.remove cache (to_fh ops.fs dir) name);
      }
    in
    if not compound then cached
    else
      {
        cached with
        readdir =
          (fun h ->
            (* READDIRPLUS: the one listing round trip also prefetches
               the name and attribute caches, so the lookups and
               getattrs a walk issues right after are hits. *)
            syscall ();
            strip_dots
              (List.map (fun de -> de.Proto.p_name)
                 (Nfs.Cache.readdirplus cache (to_fh ops.fs h))));
        read_whole =
          (fun h ->
            (* Size from the attribute cache, data as MULTI_READ
               batches: one credential check and one seal per
               [Proto.max_read_segments] pages. *)
            syscall ();
            Nfs.Cache.read_whole cache (to_fh ops.fs h));
      }
  end

(* --- DisCFS cluster --------------------------------------------------- *)

(* The sharded server set behind the same uniform surface: ops route
   by handle through the cluster client (owner for mutations, owner
   or leased replica for reads, home frontend for metadata), so a
   workload written against [t] exercises redirects and the shard map
   without knowing they exist. [create]/[mkdir] ride the DisCFS
   procedures and fan the issued credential out to every connection,
   as any cluster client must. *)
let discfs_cluster ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192)
    ?(cache_size = 128) ?(servers = 3) ?nshards ?tracing () =
  let cluster, ccs =
    Discfs.Deploy.make_cluster ~nblocks ~block_size ~ninodes ~cache_size ?nshards ?tracing
      ~servers ~clients:1 ()
  in
  let cc = List.hd ccs in
  let cred =
    Discfs.Cluster.admin_issue cluster
      ~licensees:(Printf.sprintf "\"%s\"" (Discfs.Cluster_client.principal cc))
      ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ~comment:"benchmark user" ()
  in
  (match Discfs.Cluster_client.submit_credential cc cred with
  | Ok _ -> ()
  | Error e -> failwith ("credential submission failed: " ^ e));
  let clock = Discfs.Cluster.clock cluster in
  let fs = Discfs.Cluster.fs cluster in
  testbeds := (clock, Sharded (cluster, cc)) :: !testbeds;
  let syscall () = Clock.advance clock Cost.default.Cost.syscall in
  let to_fh = function
    | Fh fh -> fh
    | Ino ino -> { Proto.ino; gen = Ffs.Fs.generation fs ino }
  in
  let read h ~off ~len =
    syscall ();
    snd (Discfs.Cluster_client.read cc (to_fh h) ~off ~count:len)
  in
  {
    label = Printf.sprintf "DisCFS-%dsrv" servers;
    clock;
    stats = Discfs.Cluster.stats cluster;
    cost = Cost.default;
    fs;
    root = Fh (Discfs.Cluster_client.root cc);
    mkdir =
      (fun dir name ->
        syscall ();
        let fh, _, _ = Discfs.Cluster_client.mkdir cc ~dir:(to_fh dir) name () in
        Fh fh);
    create =
      (fun dir name ->
        syscall ();
        let fh, _, _ = Discfs.Cluster_client.create cc ~dir:(to_fh dir) name () in
        Fh fh);
    write =
      (fun h ~off data ->
        syscall ();
        ignore (Discfs.Cluster_client.write cc (to_fh h) ~off data));
    read;
    read_whole =
      (fun h ->
        (* First page by plain READ (its reply carries the size), the
           rest as MULTI_READ batches — both routed by the handle's
           shard, so redirects still correct a stale map mid-file. *)
        syscall ();
        let fh = to_fh h in
        let attr, first = Discfs.Cluster_client.read cc fh ~off:0 ~count:8192 in
        let size = attr.Proto.size in
        if size <= 8192 then first
        else begin
          let buf = Buffer.create size in
          Buffer.add_string buf first;
          let off = ref 8192 in
          while !off < size do
            let pages = (size - !off + 8191) / 8192 in
            let n = min Proto.max_read_segments pages in
            let segs = List.init n (fun i -> (!off + (i * 8192), 8192)) in
            let _, datas = Discfs.Cluster_client.multi_read cc fh segs in
            List.iter (Buffer.add_string buf) datas;
            off := !off + (n * 8192)
          done;
          Buffer.contents buf
        end);
    readdir =
      (fun h ->
        syscall ();
        strip_dots (List.map fst (Discfs.Cluster_client.readdir cc (to_fh h))));
    lookup =
      (fun dir name ->
        syscall ();
        let fh, _ = Discfs.Cluster_client.lookup cc (to_fh dir) name in
        Fh fh);
    remove =
      (fun dir name ->
        syscall ();
        Discfs.Cluster_client.remove cc (to_fh dir) name);
  }

let discfs_deploy t = match testbed t with Some (Single d) -> Some d | _ -> None
let discfs_cluster_parts t = match testbed t with Some (Sharded (c, cc)) -> Some (c, cc) | _ -> None

let discfs_attr_cache t =
  List.find_opt (fun (clock, _) -> clock == t.clock) !attr_caches |> Option.map snd
