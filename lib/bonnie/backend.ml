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
  parts : (Discfs.Cluster.t * Discfs.Cluster_client.t) option;
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
    parts = None;
  }

(* --- shared remote plumbing ------------------------------------------ *)

(* The NFS calls a remote backend makes, named as {!Nfs.Client} names
   them: plain NFS here, the routed cluster client for DisCFS. *)
module type REMOTE = sig
  type t

  val read : t -> Proto.fh -> off:int -> count:int -> Proto.fattr * string
  val write : t -> Proto.fh -> off:int -> string -> Proto.fattr
  val create_file : t -> Proto.fh -> string -> Proto.sattr -> Proto.fh * Proto.fattr
  val mkdir : t -> Proto.fh -> string -> Proto.sattr -> Proto.fh * Proto.fattr
  val readdir : t -> Proto.fh -> (string * int) list
  val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
  val remove : t -> Proto.fh -> string -> unit
end

let to_fh fs = function Fh fh -> fh | Ino ino -> { Proto.ino; gen = Ffs.Fs.generation fs ino }

let remote_ops (type c) ?parts (module R : REMOTE with type t = c) (client : c) ~label ~clock
    ~stats ~cost ~fs ~root =
  let syscall () = Clock.advance clock cost.Cost.syscall in
  let to_fh = to_fh fs in
  let read h ~off ~len =
    syscall ();
    snd (R.read client (to_fh h) ~off ~count:len)
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
        let fh, _ = R.mkdir client (to_fh dir) name Proto.sattr_none in
        Fh fh);
    create =
      (fun dir name ->
        syscall ();
        let fh, _ = R.create_file client (to_fh dir) name Proto.sattr_none in
        Fh fh);
    write =
      (fun h ~off data ->
        syscall ();
        ignore (R.write client (to_fh h) ~off data));
    read;
    read_whole = chunked_read_whole read;
    readdir =
      (fun h ->
        syscall ();
        strip_dots (List.map fst (R.readdir client (to_fh h))));
    lookup =
      (fun dir name ->
        syscall ();
        let fh, _ = R.lookup client (to_fh dir) name in
        Fh fh);
    remove =
      (fun dir name ->
        syscall ();
        R.remove client (to_fh dir) name);
    parts;
  }

(* --- CFS-NE ----------------------------------------------------------- *)

let cfs_ne ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192) () =
  let d = Cfs.Cfs_ne.deploy ~nblocks ~block_size ~ninodes () in
  let nfs, root = Cfs.Cfs_ne.connect d () in
  remote_ops (module Nfs.Client) nfs ~label:"CFS-NE" ~clock:d.Cfs.Cfs_ne.clock
    ~stats:d.Cfs.Cfs_ne.stats ~cost:Cost.default ~fs:d.Cfs.Cfs_ne.fs ~root:(Fh root)

(* --- DisCFS ------------------------------------------------------------ *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Cache = Nfs.Cache.Make (CC)

(* The cluster client under the NFS names: a workload's create and
   mkdir are the plain NFS procedures, as on the paper's testbed. *)
module Routed = struct
  include CC

  let create_file = nfs_create
  let mkdir = nfs_mkdir
end

let discfs ?(nblocks = 16384) ?(block_size = 8192) ?(ninodes = 8192) ?(cache_size = 128)
    ?cache_blocks ?readahead ?(attr_cache = false) ?attr_ttl ?name_ttl ?(compound = true)
    ?(servers = 1) ?nshards ?cipher ?fault ?retry ?tracing () =
  let d =
    Cluster.make ~nblocks ~block_size ~ninodes ~cache_size ?cache_blocks ?readahead ?fault
      ?tracing ?nshards ~servers ()
  in
  let cc = CC.attach d ~identity:(Cluster.new_identity d) ?cipher ?retry () in
  (* The administrator grants the benchmark user full rights over the
     volume, as the paper's evaluation setup does implicitly. *)
  let cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal cc))
      ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ~comment:"benchmark user" ()
  in
  (match CC.submit_credential cc cred with
  | Ok _ -> ()
  | Error e -> failwith ("credential submission failed: " ^ e));
  let clock = Cluster.clock d in
  let ops =
    remote_ops ~parts:(d, cc) (module Routed) cc
      ~label:(if servers = 1 then "DisCFS" else Printf.sprintf "DisCFS-%dsrv" servers)
      ~clock ~stats:(Cluster.stats d) ~cost:Cost.default ~fs:(Cluster.fs d)
      ~root:(Fh (CC.root cc))
  in
  if not attr_cache then ops
  else begin
    (* Route name resolution and reads through the client-side NFS
       cache: repeated lookups within the TTL skip the wire (and the
       server's policy check) entirely. *)
    let cache = Cache.create ~client:cc ~clock ~stats:(Cluster.stats d) ?attr_ttl ?name_ttl () in
    Cache.set_race cache (Cluster.race_monitor d "nfs.cache");
    let syscall () = Clock.advance clock Cost.default.Cost.syscall in
    let to_fh = to_fh ops.fs in
    let read h ~off ~len =
      syscall ();
      snd (Cache.read cache (to_fh h) ~off ~count:len)
    in
    let cached =
      {
        ops with
        lookup =
          (fun dir name ->
            syscall ();
            let fh, _ = Cache.lookup cache (to_fh dir) name in
            Fh fh);
        read;
        read_whole = chunked_read_whole read;
        write =
          (fun h ~off data ->
            syscall ();
            ignore (Cache.write cache (to_fh h) ~off data));
        remove =
          (fun dir name ->
            syscall ();
            Cache.remove cache (to_fh dir) name);
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
              (List.map (fun de -> de.Proto.p_name) (Cache.readdirplus cache (to_fh h))));
        read_whole =
          (fun h ->
            (* Size from the attribute cache, data as MULTI_READ
               batches: one credential check and one seal per
               [Proto.max_read_segments] pages. *)
            syscall ();
            Cache.read_whole cache (to_fh h));
      }
  end
