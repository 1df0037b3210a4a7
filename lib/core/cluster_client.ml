module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Cost = Simnet.Cost
module Topo = Simnet.Topo
module Rpc = Oncrpc.Rpc
module Dsa = Dcrypto.Dsa
module Assertion = Keynote.Assertion
module Proto = Nfs.Proto

(* The cluster-aware client: one identity, one cached shard map, and
   up to one authenticated connection per frontend (opened lazily —
   IKE is the expensive part of attach, so a client only pays for the
   frontends its working set actually touches).

   Every routed call can be answered with a signed NFSERR_MOVED
   redirect when the cached map is stale; the client verifies the
   signature against the key it authenticated in IKE, refreshes its
   map if the redirect names a newer version, and re-issues — with a
   hop bound, so a pathological map can only bounce a call
   [max_hops] times before surfacing an error instead of looping. *)

exception Discfs_error = Client.Discfs_error

type t = {
  cluster : Cluster.t;
  identity : Dsa.private_key;
  uid : int;
  home : int;
  path : string;
  cipher : Ipsec.Sa.cipher option;
  sa_lifetime : int option;
  retry : Rpc.retry option;
  conns : Client.t option array;
  incarnations : int array; (* each connection's frontend restart count at (re)attach *)
  mutable map : Shard_map.t;
  mutable attaches : int; (* labels the DRBG fork of each attach *)
  mutable detached : bool;
}

let max_hops = 4

let stats t = Cluster.stats t.cluster
let home t = t.home
let principal t = Assertion.principal_of_pub t.identity.Dsa.pub
let map_version t = Shard_map.version t.map

(* --- connections ----------------------------------------------------- *)

let attach_node t i =
  t.attaches <- t.attaches + 1;
  Stats.incr (stats t) "client.attaches";
  Client.attach
    ~link:(Cluster.node_link t.cluster i)
    ~rpc:(Cluster.node_rpc t.cluster i)
    ~server:(Cluster.node_server t.cluster i)
    ~identity:t.identity
    ~drbg:
      (Cluster.fork_drbg t.cluster
         ~label:(Printf.sprintf "attach-%s-%d" (principal t) t.attaches))
    ~uid:t.uid ~path:t.path ?cipher:t.cipher ?sa_lifetime:t.sa_lifetime ?retry:t.retry ()

let conn t i =
  if t.detached then raise (Discfs_error "client is detached");
  if i < 0 || i >= Array.length t.conns then
    raise (Discfs_error "cluster client: server index out of range");
  match t.conns.(i) with
  | Some c -> c
  | None ->
    let c = attach_node t i in
    if not (Int.equal i t.home) then Stats.incr (stats t) "topo.lazy_attaches";
    t.conns.(i) <- Some c;
    t.incarnations.(i) <- Cluster.node_restarts t.cluster i;
    c

(* A timeout may mean some frontend on the call's path died. Every
   open connection to a frontend that has rebooted since it was opened
   is re-homed onto the current incarnation; connections to live
   frontends are left alone. True when anything was re-homed. The
   call that timed out is not replayed here: its caller re-issues it,
   so it runs once on the new incarnation and the caller gets its
   outcome. *)
let recover t =
  let rehomed = ref false in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some c when t.incarnations.(i) < Cluster.node_restarts t.cluster i ->
        Stats.incr (stats t) "client.reattaches";
        Client.reattach c
          ~rpc:(Cluster.node_rpc t.cluster i)
          ~server:(Cluster.node_server t.cluster i)
          ();
        t.incarnations.(i) <- Cluster.node_restarts t.cluster i;
        rehomed := true
      | _ -> ())
    t.conns;
  !rehomed

(* --- the shard map --------------------------------------------------- *)

(* One frontend serves every shard, which is exactly what the
   placeholder map says: there is nothing to fetch. *)
let refresh_map t =
  if Cluster.nservers t.cluster > 1 then begin
    let d =
      Client.call (conn t t.home) ~prog:Cluster.cluster_prog ~vers:Cluster.cluster_vers
        ~proc:Cluster.clusterproc_getmap (fun e -> Xdr.Enc.uint32 e (Shard_map.version t.map))
    in
    if Xdr.Dec.uint32 d = 0 && Xdr.Dec.bool d then begin
      t.map <- Shard_map.decode d;
      Stats.incr (stats t) "topo.map_refreshes"
    end
  end

(* --- routing --------------------------------------------------------- *)

type rclass = Any | Rd | Wr

(* Reads spread over the owner and its replicas; the pick is a pure
   function of (handle, home), so the same client always asks the
   same frontend for the same file — cache-friendly on the server,
   reproducible in the benchmarks. *)
let target_for t ~ino cls =
  match cls with
  | Any -> t.home
  | Wr -> Shard_map.owner t.map ~ino
  | Rd -> (
    let s = Shard_map.shard t.map (Shard_map.shard_of t.map ~ino) in
    match s.Shard_map.replicas with
    | [] -> s.Shard_map.owner
    | reps ->
      let cands = s.Shard_map.owner :: reps in
      List.nth cands ((Shard_map.mix ino + t.home) mod List.length cands))

(* Verify a redirect against the key of the server that sent it —
   the one this connection authenticated in IKE — before believing
   it. A redirect that fails verification is an attack or a bug;
   either way the client refuses to follow. *)
let verify_redirect t c (r : Proto.redirect) ~ino ~gen =
  let cost = Cluster.cost t.cluster in
  Clock.advance (Cluster.clock t.cluster) cost.Cost.credential_verify;
  match Assertion.pub_of_principal (Client.server_principal c) with
  | None -> false
  | Some pub -> (
    let preimage =
      Proto.redirect_preimage ~ino ~gen ~target:r.Proto.r_target ~version:r.Proto.r_version
        ~principal:r.Proto.r_principal
    in
    match Dsa.sig_decode r.Proto.r_sig with
    | exception _ -> false
    | s -> Dsa.verify ~key:pub preimage s)

(* Check a redirect and return the frontend to re-issue at. *)
let follow t c (r : Proto.redirect) ~ino ~gen ~hops =
  Stats.incr (stats t) "redirect.received";
  if not (verify_redirect t c r ~ino ~gen) then begin
    Stats.incr (stats t) "redirect.bad_sig";
    raise (Discfs_error "redirect signature verification failed")
  end;
  if r.Proto.r_target < 0 || r.Proto.r_target >= Cluster.nservers t.cluster then
    raise (Discfs_error "redirect target out of range");
  if hops + 1 >= max_hops then begin
    Stats.incr (stats t) "redirect.loops";
    raise (Discfs_error "redirect loop: hop bound exceeded")
  end;
  if r.Proto.r_version > Shard_map.version t.map then refresh_map t;
  let c' = conn t r.Proto.r_target in
  if not (String.equal (Client.server_principal c') r.Proto.r_principal) then
    raise (Discfs_error "redirect principal mismatch");
  Stats.incr (stats t) "redirect.followed";
  r.Proto.r_target

(* Frontend restarts so far, over the whole cluster. *)
let rec sum_restarts c i acc =
  if i < 0 then acc else sum_restarts c (i - 1) (acc + Cluster.node_restarts c i)

let restarts t = sum_restarts t.cluster (Cluster.nservers t.cluster - 1) 0

(* [since] is {!restarts} when this attempt began. *)
let rec issue : 'a. t -> ino:int -> gen:int -> cls:rclass -> hops:int -> since:int -> int
    -> (Client.t -> 'a) -> 'a =
 fun t ~ino ~gen ~cls ~hops ~since target f ->
  let live = hops + 1 < max_hops in
  match conn t target with
  | exception (Rpc.Rpc_timeout _ as e) when live -> reroute t e ~ino ~gen ~cls ~hops ~since f
  | c -> (
    match f c with
    | v -> v
    | exception Proto.Nfs_moved r -> (
      match follow t c r ~ino ~gen ~hops with
      | next -> issue t ~ino ~gen ~cls ~hops:(hops + 1) ~since next f
      | exception (Rpc.Rpc_timeout _ as e) when live -> reroute t e ~ino ~gen ~cls ~hops ~since f)
    | exception (Rpc.Rpc_timeout _ as e) when live -> reroute t e ~ino ~gen ~cls ~hops ~since f)

(* A timeout on the call itself, a lazy attach or a map refresh. If a
   frontend died under us — an open connection needed re-homing, or
   one being opened met a reboot — recover against the current
   incarnations, pull a fresh map (the membership change may have
   moved shards) and re-route. Otherwise it was the network: the
   timeout [e] is the caller's, exactly as from a single connection —
   retrying whole operations here would hide packet loss. *)
and reroute :
      'a. t -> exn -> ino:int -> gen:int -> cls:rclass -> hops:int -> since:int ->
      (Client.t -> 'a) -> 'a =
 fun t e ~ino ~gen ~cls ~hops ~since f ->
  let rehomed = recover t in
  let now = restarts t in
  if not (rehomed || now > since) then raise e;
  refresh_map t;
  issue t ~ino ~gen ~cls ~hops:(hops + 1) ~since:now (target_for t ~ino cls) f

let routed t ~(fh : Proto.fh) ~cls f =
  issue t ~ino:fh.Proto.ino ~gen:fh.Proto.gen ~cls ~hops:0 ~since:(restarts t)
    (target_for t ~ino:fh.Proto.ino cls)
    f

(* --- construction ---------------------------------------------------- *)

let attach cluster ~identity ?(uid = 1000) ?(home = 0) ?(path = "/") ?cipher ?sa_lifetime
    ?retry () =
  if home < 0 || home >= Cluster.nservers cluster then
    invalid_arg "Cluster_client.attach: home out of range";
  let t =
    {
      cluster;
      identity;
      uid;
      home;
      path;
      cipher;
      sa_lifetime;
      retry;
      conns = Array.make (Cluster.nservers cluster) None;
      incarnations = Array.make (Cluster.nservers cluster) 0;
      map = Shard_map.placeholder ~nservers:(Cluster.nservers cluster);
      attaches = 0;
      detached = false;
    }
  in
  ignore (conn t home);
  refresh_map t;
  t

let root t = Client.root (conn t t.home)
let client_id t = Client.client_id (conn t t.home)

let detach t =
  t.detached <- true;
  Array.iter
    (function
      | None -> ()
      | Some c ->
        Client.detach c;
        Stats.incr (stats t) "client.detaches")
    t.conns

(* --- credentials ----------------------------------------------------- *)

(* The frontends share one credential store, so credentials and
   revocations go to the home frontend alone. A timeout there recovers
   as a routed call's does and re-issues the call at the home's
   current incarnation; one with no restart behind it is the
   caller's. *)
let rec at_home t ~tries ~since f =
  match f (conn t t.home) with
  | exception (Rpc.Rpc_timeout _ as e) when tries + 1 < max_hops ->
    let rehomed = recover t in
    let now = restarts t in
    if not (rehomed || now > since) then raise e;
    at_home t ~tries:(tries + 1) ~since:now f
  | v -> v

let home_call t f = at_home t ~tries:0 ~since:(restarts t) f

let submit_credential_text t text =
  home_call t (fun c -> Client.submit_credential_text c text)

let submit_credential t cred = submit_credential_text t (Assertion.to_text cred)

let revoke_credential t ~fingerprint =
  home_call t (fun c -> Client.revoke_credential c ~fingerprint)

let revoke_key t ~principal = home_call t (fun c -> Client.revoke_key c ~principal)

(* --- operations ------------------------------------------------------ *)

let with_nfs f c = f (Client.nfs c)

let getattr t fh = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.getattr n fh))
let lookup t fh name = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.lookup n fh name))
let readdir t fh = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.readdir n fh))

let readdirplus t fh =
  routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.readdirplus n fh))
let readlink t fh = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.readlink n fh))
let statfs t fh = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.statfs n fh))
let access t fh wanted = routed t ~fh ~cls:Any (with_nfs (fun n -> Nfs.Client.access n fh wanted))

let read t fh ~off ~count =
  routed t ~fh ~cls:Rd (with_nfs (fun n -> Nfs.Client.read n fh ~off ~count))

let read_all t fh = routed t ~fh ~cls:Rd (with_nfs (fun n -> Nfs.Client.read_all n fh))

let multi_read t fh segments =
  routed t ~fh ~cls:Rd (with_nfs (fun n -> Nfs.Client.multi_read n fh segments))

let read_whole t fh ~size =
  routed t ~fh ~cls:Rd (with_nfs (fun n -> Nfs.Client.read_whole n fh ~size))

let write t fh ~off data =
  let attr = routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.write n fh ~off data)) in
  Cluster.note_write t.cluster ~ino:fh.Proto.ino;
  attr

let write_all t fh data =
  routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.write_all n fh data));
  Cluster.note_write t.cluster ~ino:fh.Proto.ino

let setattr t fh sattr =
  let attr = routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.setattr n fh sattr)) in
  Cluster.note_write t.cluster ~ino:fh.Proto.ino;
  attr

let remove t fh name = routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.remove n fh name))
let rmdir t fh name = routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.rmdir n fh name))

let rename t ~src:(src_fh, src_name) ~dst =
  routed t ~fh:src_fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.rename n ~src:(src_fh, src_name) ~dst))

let symlink t fh name ~target =
  routed t ~fh ~cls:Wr (with_nfs (fun n -> Nfs.Client.symlink n fh name ~target))

let nfs_create t dir name sattr =
  routed t ~fh:dir ~cls:Wr (with_nfs (fun n -> Nfs.Client.create_file n dir name sattr))

let nfs_mkdir t dir name sattr =
  routed t ~fh:dir ~cls:Wr (with_nfs (fun n -> Nfs.Client.mkdir n dir name sattr))

let link t ~target ~dir name =
  routed t ~fh:dir ~cls:Wr (with_nfs (fun n -> Nfs.Client.link n ~target ~dir name))

(* DisCFS create/mkdir route like any other namespace mutation — by
   the directory's shard. The issuing frontend admits the returned
   credential to the shared store. *)
let create t ~dir name ?perms () =
  routed t ~fh:dir ~cls:Wr (fun c -> Client.create c ~dir name ?perms ())

let mkdir t ~dir name ?perms () =
  routed t ~fh:dir ~cls:Wr (fun c -> Client.mkdir c ~dir name ?perms ())

let resolve t path =
  let parts = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path) in
  List.fold_left
    (fun (fh, _attr) name -> lookup t fh name)
    (root t, getattr t (root t))
    parts
