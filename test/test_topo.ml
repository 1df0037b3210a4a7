(* Multi-server topology tests: the sharded namespace, signed
   redirects, replica leases and crash recovery — end-to-end through
   IKE, ESP, NFS, KeyNote and the cluster control program.

   The load-bearing property is the first QCheck test: a sharded
   4-frontend cluster is observationally equivalent to the
   single-server deployment for every random op sequence. Redirects,
   lease invalidations and lazy attaches must never change what a
   client reads back. *)

module Proto = Nfs.Proto
module Assertion = Keynote.Assertion
module CC = Discfs.Cluster_client
module Server = Discfs.Server
module Cluster = Discfs.Cluster
module Shard_map = Discfs.Shard_map
module Stats = Simnet.Stats
module Clock = Simnet.Clock
module Sched = Simnet.Sched
module Dsa = Dcrypto.Dsa

let quoted p = Printf.sprintf "\"%s\"" p

let root_conditions fh value =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino value

(* A cluster plus one cluster client granted RWX on the root
   directory, so it can create files — the cluster analogue of
   test_discfs's [setup]. *)
let csetup ?nshards ?(servers = 3) ?(clients = 1) ~seed () =
  let c = Cluster.make ?nshards ~servers ~seed () in
  (* Every identity is drawn before the first attach. *)
  let identities = List.init clients (fun _ -> Cluster.new_identity c) in
  let ccs =
    List.mapi
      (fun i identity -> CC.attach c ~identity ~uid:(1000 + i) ~home:(i mod servers) ())
      identities
  in
  List.iter
    (fun cc ->
      let cred =
        Cluster.admin_issue c
          ~licensees:(quoted (CC.principal cc))
          ~conditions:(root_conditions (CC.root cc) "RWX")
          ()
      in
      match CC.submit_credential cc cred with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    ccs;
  (c, ccs)

(* --- the shard map ---------------------------------------------------- *)

let test_shard_map_unit () =
  let m = Shard_map.make ~nservers:4 ~nshards:32 in
  Alcotest.(check int) "version 1" 1 (Shard_map.version m);
  Alcotest.(check int) "nshards" 32 (Shard_map.nshards m);
  (* Round-robin striping covers every server. *)
  for s = 0 to 31 do
    Alcotest.(check int) "striped owner" (s mod 4) (Shard_map.shard m s).Shard_map.owner
  done;
  (* Ownership answers writes and reads; nobody else serves. *)
  let ino = 42 in
  let o = Shard_map.owner m ~ino in
  Alcotest.(check bool) "owner serves writes" true (Shard_map.serves m ~server:o ~ino ~write:true);
  let stranger = (o + 1) mod 4 in
  Alcotest.(check bool) "non-owner no reads" false
    (Shard_map.serves m ~server:stranger ~ino ~write:false);
  (* A replica serves reads only, and versions advance one per change. *)
  let sh = Shard_map.shard_of m ~ino in
  let m2 = Shard_map.add_replica m ~shard:sh ~server:stranger in
  Alcotest.(check int) "add_replica bumps" 2 (Shard_map.version m2);
  Alcotest.(check bool) "replica reads" true
    (Shard_map.serves m2 ~server:stranger ~ino ~write:false);
  Alcotest.(check bool) "replica no writes" false
    (Shard_map.serves m2 ~server:stranger ~ino ~write:true);
  (* Moving ownership strips the new owner from the replica list and
     does not grandfather the old owner in. *)
  let m3 = Shard_map.move m2 ~shard:sh ~owner:stranger in
  Alcotest.(check int) "move bumps" 3 (Shard_map.version m3);
  Alcotest.(check int) "new owner" stranger (Shard_map.owner m3 ~ino);
  Alcotest.(check (list int)) "new owner not a replica" [] (Shard_map.shard m3 sh).Shard_map.replicas;
  Alcotest.(check bool) "old owner demoted" false
    (Shard_map.serves m3 ~server:o ~ino ~write:false);
  (* Codec round-trip preserves the observable map. *)
  let e = Xdr.Enc.create () in
  Shard_map.encode e m3;
  let m3' = Shard_map.decode (Xdr.Dec.of_string (Xdr.Enc.to_string e)) in
  Alcotest.(check string) "codec round-trip" (Shard_map.to_string m3) (Shard_map.to_string m3');
  (* Decode discipline: a zero-server map is malformed, not a crash
     further down the line. *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 7;
  Xdr.Enc.uint32 e 0;
  Xdr.Enc.uint32 e 1;
  Alcotest.check_raises "zero servers rejected" (Xdr.Decode_error "shard map: nservers < 1")
    (fun () -> ignore (Shard_map.decode (Xdr.Dec.of_string (Xdr.Enc.to_string e))));
  (* The client-side placeholder is older than every real map. *)
  Alcotest.(check int) "placeholder is version 0" 0
    (Shard_map.version (Shard_map.placeholder ~nservers:4))

(* --- smoke: create/write/read through the cluster --------------------- *)

let test_cluster_smoke () =
  let c, ccs = csetup ~seed:"topo-smoke" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  let fh, _, _ = CC.create cc ~dir:root "paper.tex" () in
  CC.write_all cc fh "Secure and Flexible Global File Sharing";
  Alcotest.(check string) "read back" "Secure and Flexible Global File Sharing"
    (CC.read_all cc fh);
  let names = List.map fst (CC.readdir cc root) in
  Alcotest.(check bool) "listed" true (List.mem "paper.tex" names);
  (* Metadata ops serve at the home frontend: no redirects yet. *)
  Alcotest.(check int) "no redirects in the happy path" 0
    (Stats.get (Cluster.stats c) "redirect.sent");
  ignore (CC.getattr cc fh)

(* --- leaving and revoking ------------------------------------------- *)

(* A detached handle is dead: a later call raises instead of quietly
   re-running IKE as a fresh member. *)
let test_detach_poisons () =
  let c, ccs = csetup ~seed:"topo-detach" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  ignore (CC.getattr cc root);
  let attaches () = Stats.get (Cluster.stats c) "client.attaches" in
  let before = attaches () in
  CC.detach cc;
  (match CC.getattr cc root with
  | _ -> Alcotest.fail "detached client still served"
  | exception CC.Discfs_error _ -> ());
  Alcotest.(check int) "no fresh attach" before (attaches ())

(* Revocation reaches every frontend, including ones the revoker never
   connected to: the administrator, homed on frontend 0, revokes there
   alone; the holder, homed on frontend 2, reads a file frontend 2
   owns. *)
let test_revocation_every_frontend () =
  List.iter
    (fun (what, revoke) ->
      let c = Cluster.make ~servers:4 ~seed:("topo-revoke-" ^ what) () in
      let fs = Cluster.fs c in
      let rec on_two i =
        let name = Printf.sprintf "memo%d.txt" i in
        let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) name ~perms:0o644 ~uid:0 in
        if Shard_map.owner (Cluster.map c) ~ino = 2 then ino else on_two (i + 1)
      in
      let ino = on_two 0 in
      Ffs.Fs.write fs ino ~off:0 "for holders only";
      let fh = { Proto.ino; gen = Ffs.Fs.generation fs ino } in
      let admin = CC.attach c ~identity:(Cluster.admin_identity c) ~uid:0 ~home:0 () in
      let bob = CC.attach c ~identity:(Cluster.new_identity c) ~uid:100 ~home:2 () in
      let cred =
        Cluster.admin_issue c ~licensees:(quoted (CC.principal bob))
          ~conditions:(root_conditions fh "R") ()
      in
      (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
      Alcotest.(check string) (what ^ ": holder reads") "for holders only" (CC.read_all bob fh);
      let lazy0 = Stats.get (Cluster.stats c) "topo.lazy_attaches" in
      (match revoke admin ~principal:(CC.principal bob) ~cred with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) (what ^ ": revoker opened no extra connection") lazy0
        (Stats.get (Cluster.stats c) "topo.lazy_attaches");
      match CC.read_all bob fh with
      | _ -> Alcotest.failf "%s: revoked access still served" what
      | exception Proto.Nfs_error s ->
        Alcotest.(check int) (what ^ ": refused") Proto.nfserr_acces s)
    [
      ("key", fun admin ~principal ~cred:_ -> CC.revoke_key admin ~principal);
      ( "credential",
        fun admin ~principal:_ ~cred ->
          CC.revoke_credential admin ~fingerprint:(Assertion.fingerprint cred) );
    ]

(* A revocation sticks on frontends the holder has not touched yet: a
   holder homed on frontend 0 submits 8 single-file credentials for
   files the other frontends own, the administrator revokes all 8, and
   only then does the holder read. Each read lazily attaches to the
   file's owner, and every one must be refused. *)
let test_revoked_before_lazy_attach () =
  let c = Cluster.make ~servers:4 ~seed:"topo-revoke-lazy" () in
  let fs = Cluster.fs c in
  let rec away i acc =
    if List.length acc = 8 then List.rev acc
    else begin
      let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) (Printf.sprintf "held%d.txt" i)
          ~perms:0o644 ~uid:0 in
      Ffs.Fs.write fs ino ~off:0 "revoked before use";
      if Shard_map.owner (Cluster.map c) ~ino = 0 then away (i + 1) acc
      else away (i + 1) ({ Proto.ino; gen = Ffs.Fs.generation fs ino } :: acc)
    end
  in
  let fhs = away 0 [] in
  let admin = CC.attach c ~identity:(Cluster.admin_identity c) ~uid:0 ~home:0 () in
  let holder = CC.attach c ~identity:(Cluster.new_identity c) ~uid:100 ~home:0 () in
  let creds =
    List.map
      (fun fh ->
        let cred =
          Cluster.admin_issue c ~licensees:(quoted (CC.principal holder))
            ~conditions:(root_conditions fh "R") ()
        in
        (match CC.submit_credential holder cred with Ok _ -> () | Error e -> Alcotest.fail e);
        cred)
      fhs
  in
  List.iter
    (fun cred ->
      match CC.revoke_credential admin ~fingerprint:(Assertion.fingerprint cred) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    creds;
  let lazy0 = Stats.get (Cluster.stats c) "topo.lazy_attaches" in
  let denied =
    List.length
      (List.filter
         (fun fh ->
           match CC.read_all holder fh with
           | _ -> false
           | exception Proto.Nfs_error s -> s = Proto.nfserr_acces)
         fhs)
  in
  Alcotest.(check int) "every revoked READ refused" 8 denied;
  Alcotest.(check bool) "the reads attached lazily" true
    (Stats.get (Cluster.stats c) "topo.lazy_attaches" > lazy0)

(* --- redirects on a stale map ----------------------------------------- *)

let test_reshard_redirects () =
  let c, ccs = csetup ~seed:"topo-reshard" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  let fh, _, _ = CC.create cc ~dir:root "hot.dat" () in
  CC.write_all cc fh "v1";
  let stats = Cluster.stats c in
  let map = Cluster.map c in
  let shard = Shard_map.shard_of map ~ino:fh.Proto.ino in
  let old_owner = Shard_map.owner map ~ino:fh.Proto.ino in
  let new_owner = (old_owner + 1) mod Cluster.nservers c in
  let v_before = CC.map_version cc in
  Cluster.reshard c ~shard ~owner:new_owner;
  Alcotest.(check int) "reshard counted" 1 (Stats.get stats "topo.reshards");
  (* The client's cached map still names the old owner; its next write
     is bounced with a signed redirect and lands on the new owner. *)
  CC.write_all cc fh "v2";
  Alcotest.(check bool) "redirect sent" true (Stats.get stats "redirect.sent" >= 1);
  Alcotest.(check bool) "redirect followed" true (Stats.get stats "redirect.followed" >= 1);
  Alcotest.(check int) "no bad signatures" 0 (Stats.get stats "redirect.bad_sig");
  Alcotest.(check int) "map refreshed past the reshard" (v_before + 1) (CC.map_version cc);
  Alcotest.(check string) "data intact after move" "v2" (CC.read_all cc fh);
  (* Now that the map is fresh, reads route straight to the new owner. *)
  let followed = Stats.get stats "redirect.followed" in
  ignore (CC.read_all cc fh);
  Alcotest.(check int) "no further redirects" followed (Stats.get stats "redirect.followed")

(* A forged redirect — right shape, wrong key — must be refused, not
   followed: redirects re-home requests, never authority. *)
let test_redirect_bad_signature () =
  let c, ccs = csetup ~servers:2 ~seed:"topo-forge" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  let fh, _, _ = CC.create cc ~dir:root "forged.dat" () in
  CC.write_all cc fh "x";
  let victim = fh.Proto.ino in
  let target = Shard_map.owner (Cluster.map c) ~ino:victim in
  let other = 1 - target in
  let mallory = Dsa.generate_key (Cluster.fork_drbg c ~label:"mallory") in
  let drbg = Cluster.fork_drbg c ~label:"forge-sign" in
  let forge ~conn:_ ~fh:(rfh : Proto.fh) ~op:_ =
    if rfh.Proto.ino <> victim then None
    else begin
      let principal = Cluster.server_principal c other in
      let preimage =
        Proto.redirect_preimage ~ino:rfh.Proto.ino ~gen:rfh.Proto.gen ~target:other
          ~version:(Shard_map.version (Cluster.map c))
          ~principal
      in
      let s = Dsa.sign ~key:mallory drbg preimage in
      let e = Xdr.Enc.create () in
      Xdr.Enc.uint32 e Proto.nfserr_moved;
      Proto.redirect_encode e
        { Proto.r_target = other; r_version = Shard_map.version (Cluster.map c);
          r_principal = principal; r_sig = Dsa.sig_encode s };
      Some (Xdr.Enc.to_string e)
    end
  in
  Nfs.Server.set_route (Server.nfs (Cluster.node_server c target)) forge;
  (match CC.read_all cc fh with
  | _ -> Alcotest.fail "forged redirect was followed"
  | exception CC.Discfs_error m ->
    Alcotest.(check string) "refused" "redirect signature verification failed" m);
  Alcotest.(check int) "counted" 1 (Stats.get (Cluster.stats c) "redirect.bad_sig");
  Alcotest.(check int) "not followed" 0 (Stats.get (Cluster.stats c) "redirect.followed")

(* Two frontends bouncing a handle between them (a corrupt map, or a
   bug) must surface as an error after [max_hops], not a livelock. *)
let test_redirect_loop_bound () =
  let c, ccs = csetup ~servers:2 ~seed:"topo-loop" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  let fh, _, _ = CC.create cc ~dir:root "pingpong.dat" () in
  CC.write_all cc fh "x";
  let victim = fh.Proto.ino in
  let drbg = Cluster.fork_drbg c ~label:"loop-sign" in
  (* Each node redirects the victim handle to the other, signed with
     its own (genuine) key: the signatures verify, only the hop bound
     stops the chase. *)
  let bounce ~from ~target =
    let key = Server.server_key (Cluster.node_server c from) in
    fun ~conn:_ ~fh:(rfh : Proto.fh) ~op:_ ->
      if rfh.Proto.ino <> victim then None
      else begin
        let principal = Cluster.server_principal c target in
        let version = Shard_map.version (Cluster.map c) in
        let preimage =
          Proto.redirect_preimage ~ino:rfh.Proto.ino ~gen:rfh.Proto.gen ~target ~version
            ~principal
        in
        let s = Dsa.sign ~key drbg preimage in
        let e = Xdr.Enc.create () in
        Xdr.Enc.uint32 e Proto.nfserr_moved;
        Proto.redirect_encode e
          { Proto.r_target = target; r_version = version; r_principal = principal;
            r_sig = Dsa.sig_encode s };
        Some (Xdr.Enc.to_string e)
      end
  in
  Nfs.Server.set_route (Server.nfs (Cluster.node_server c 0)) (bounce ~from:0 ~target:1);
  Nfs.Server.set_route (Server.nfs (Cluster.node_server c 1)) (bounce ~from:1 ~target:0);
  (match CC.read_all cc fh with
  | _ -> Alcotest.fail "loop not detected"
  | exception CC.Discfs_error m ->
    Alcotest.(check string) "hop bound" "redirect loop: hop bound exceeded" m);
  let stats = Cluster.stats c in
  Alcotest.(check int) "loop counted" 1 (Stats.get stats "redirect.loops");
  Alcotest.(check int) "followed max_hops - 1 times" (CC.max_hops - 1)
    (Stats.get stats "redirect.followed")

(* --- replicas: reads only, while the lease lives ---------------------- *)

let test_replica_serves_only_reads () =
  let c, ccs = csetup ~servers:2 ~seed:"topo-replica" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  let fh, _, _ = CC.create cc ~dir:root "shared.dat" () in
  CC.write_all cc fh "generation one";
  let stats = Cluster.stats c in
  let shard = Shard_map.shard_of (Cluster.map c) ~ino:fh.Proto.ino in
  let owner = Shard_map.owner (Cluster.map c) ~ino:fh.Proto.ino in
  let replica = 1 - owner in
  (match Cluster.add_replica c ~shard ~server:replica with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "lease granted" true (Stats.get stats "topo.lease.grants" >= 1);
  (* A raw connection pinned to the replica: reads are served locally,
     writes are redirected to the owner — a replica never mutates. *)
  let raw_key = Cluster.new_identity c in
  let raw =
    Raw_conn.connect
      ~link:(Cluster.node_link c replica)
      ~rpc:(Cluster.node_rpc c replica)
      ~server:(Cluster.node_server c replica)
      ~identity:raw_key
      ~drbg:(Cluster.fork_drbg c ~label:"raw-replica") ~uid:2000
  in
  let raw_cred =
    Cluster.admin_issue c
      ~licensees:(quoted (Assertion.principal_of_pub raw_key.Dsa.pub))
      ~conditions:(root_conditions fh "RW") ()
  in
  if not (Raw_conn.submit raw raw_cred) then Alcotest.fail "raw credential refused";
  let raw_read () = Nfs.Client.read_all raw.Raw_conn.nfs fh in
  Alcotest.(check string) "replica serves the read" "generation one" (raw_read ());
  (match Nfs.Client.write raw.Raw_conn.nfs fh ~off:0 "nope" with
  | _ -> Alcotest.fail "replica accepted a write"
  | exception Proto.Nfs_moved r ->
    Alcotest.(check int) "write redirected to the owner" owner r.Proto.r_target);
  (* An owner-side write invalidates the lease; the replica then
     redirects reads until the lease is renewed. *)
  CC.write_all cc fh "generation two";
  Alcotest.(check bool) "invalidated" true (Stats.get stats "topo.lease.invalidations" >= 1);
  (match raw_read () with
  | _ -> Alcotest.fail "replica served a read on a dead lease"
  | exception Proto.Nfs_moved r ->
    Alcotest.(check int) "read redirected while lease dead" owner r.Proto.r_target);
  Alcotest.(check bool) "expired serve counted" true
    (Stats.get stats "topo.lease.expired_serves" >= 1);
  (match Cluster.renew_lease c ~shard ~server:replica with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "renewed replica sees the new data" "generation two" (raw_read ())

(* --- crash recovery with a stale map ---------------------------------- *)

let test_stale_map_crash_recovery () =
  let c, ccs = csetup ~seed:"topo-crash" () in
  let cc = List.hd ccs in
  let root = CC.root cc in
  (* Find a file owned by a non-home frontend, so the client holds an
     open connection to the node we are about to kill. *)
  let rec mk i =
    if i > 64 then Alcotest.fail "no file landed on frontend 1"
    else
      let fh, _, _ = CC.create cc ~dir:root (Printf.sprintf "f%d.dat" i) () in
      if Shard_map.owner (Cluster.map c) ~ino:fh.Proto.ino = 1 then fh else mk (i + 1)
  in
  let fh = mk 0 in
  CC.write_all cc fh "survives the crash";
  Alcotest.(check string) "pre-crash read" "survives the crash" (CC.read_all cc fh);
  (* Kill frontend 1 and, while the client's map is stale, move the
     shard to frontend 2. The client's next read times out against
     the dead incarnation, reattaches, refreshes its map and lands on
     the new owner. *)
  let shard = Shard_map.shard_of (Cluster.map c) ~ino:fh.Proto.ino in
  Cluster.crash_and_restart c 1;
  Cluster.reshard c ~shard ~owner:2;
  let v_auth = Shard_map.version (Cluster.map c) in
  Alcotest.(check bool) "client map is stale" true (CC.map_version cc < v_auth);
  Alcotest.(check string) "read after crash + reshard" "survives the crash"
    (CC.read_all cc fh);
  let stats = Cluster.stats c in
  Alcotest.(check int) "restart counted" 1 (Stats.get stats "server.restarts");
  Alcotest.(check bool) "client reattached" true (Stats.get stats "client.reattaches" >= 1);
  Alcotest.(check int) "map caught up" v_auth (CC.map_version cc);
  (* Data plane still consistent: a write through the new owner reads
     back everywhere the map allows. *)
  (* Same length as the original content: write_all does not
     truncate, here or on a single server. *)
  CC.write_all cc fh "rewritten after it";
  Alcotest.(check string) "post-crash write visible" "rewritten after it" (CC.read_all cc fh)

(* --- a crash under a survivor's in-flight write ------------------------ *)

(* A frontend crash reboots the shared volume under every frontend. A
   survivor's extending write that is waiting on the disk at that
   moment must still land: the reboot replaces no inode and no cached
   pointer block, so the write finishes on the objects it started
   with. A poller steps through virtual time and crashes frontend 1 at
   the first instant the chosen window is open: the data write of a
   direct block, then the pointer-block write-back of the first
   indirect block (whose placeholder bytes must not clobber the
   pointers the reboot flushed). *)
let test_crash_under_survivor_write () =
  let c = Cluster.make ~servers:2 ~workers:2 ~nblocks:1024 ~seed:"topo-crash-inflight" () in
  let sched = Option.get (Cluster.sched c) in
  let fs = Cluster.fs c and dev = Cluster.dev c in
  let cc = CC.attach c ~identity:(Cluster.admin_identity c) ~uid:0 ~home:0 () in
  let rec mk i =
    if i > 64 then Alcotest.fail "no file landed on frontend 0"
    else
      let fh, _, _ = CC.create cc ~dir:(CC.root cc) (Printf.sprintf "g%d.dat" i) () in
      if Shard_map.owner (Cluster.map c) ~ino:fh.Proto.ino = 0 then fh else mk (i + 1)
  in
  let fh = mk 0 in
  let bs = Ffs.Fs.block_size fs in
  let block i = String.make bs (Char.chr (97 + i)) in
  let size () = (Ffs.Fs.getattr fs fh.Proto.ino).Ffs.Inode.a_size in
  let free () = (Ffs.Fs.statfs fs).Ffs.Fs.f_free_blocks in
  let write_crashing what i ~window =
    let free0 = free () and writes0 = Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.writes" and size0 = size () in
    let hit = ref false and reply = ref None in
    (* discfs-lint: allow races "the writer alone sets [reply]; the poller only reads it, between scheduler steps" *)
    Sched.spawn sched (fun () -> reply := Some (CC.write cc fh ~off:(i * bs) (block i)));
    (* discfs-lint: allow races "the poller alone sets [hit]; the volume it watches is what the test asserts on" *)
    Sched.spawn sched (fun () ->
        while (not !hit) && Option.is_none !reply do
          if window ~free0 ~writes0 ~size0 then begin
            hit := true;
            Cluster.crash_and_restart c 1
          end
          else Sched.sleep sched 1e-5
        done);
    Sched.run sched;
    Alcotest.(check bool) (what ^ ": crash hit the window") true !hit;
    match !reply with
    | None -> Alcotest.failf "%s: write never returned" what
    | Some attr ->
      Alcotest.(check int) (what ^ ": reply size") ((i + 1) * bs) attr.Proto.size;
      Alcotest.(check int) (what ^ ": volume size") ((i + 1) * bs) (size ())
  in
  (* The data block is allocated, the size not yet grown. *)
  write_crashing "direct block" 0 ~window:(fun ~free0 ~writes0:_ ~size0 ->
      free () < free0 && size () = size0);
  for i = 1 to Ffs.Inode.n_direct - 1 do
    ignore (CC.write cc fh ~off:(i * bs) (block i))
  done;
  (* The indirect and data blocks are allocated, no write done yet. *)
  write_crashing "first indirect block" Ffs.Inode.n_direct
    ~window:(fun ~free0 ~writes0 ~size0:_ ->
      free () = free0 - 2 && Simnet.Stats.get (Ffs.Blockdev.stats dev) "disk.writes" = writes0);
  Alcotest.(check int) "two restarts" 2 (Stats.get (Cluster.stats c) "server.restarts");
  let expect = String.concat "" (List.init (Ffs.Inode.n_direct + 1) block) in
  Alcotest.(check bool) "every block reads back" true (String.equal expect (CC.read_all cc fh));
  let copy =
    Ffs.Blockdev.create ~clock:(Clock.create ()) ~cost:Simnet.Cost.default
      ~stats:(Stats.create ()) ~nblocks:1024 ~block_size:bs ()
  in
  let fs' = Ffs.Fs.load ~dev:copy (Ffs.Fs.save fs) in
  Alcotest.(check bool) "every block survives a save" true
    (String.equal expect (Ffs.Fs.read fs' fh.Proto.ino ~off:0 ~len:(String.length expect)))

(* --- QCheck: sharded == single-server --------------------------------- *)

(* One abstract world: the same op interpreter runs against the
   single-server deployment and the 4-frontend cluster, and every
   observation (status codes, read data, directory listings, handle
   numbers) must match byte-for-byte. *)
type world = {
  w_root : Proto.fh;
  w_create : string -> (Proto.fh, string) result;
  w_write : Proto.fh -> string -> (unit, string) result;
  w_read : Proto.fh -> (string, string) result;
  w_remove : string -> (unit, string) result;
  w_readdir : unit -> (string * int) list;
}

let nfs_result f =
  match f () with
  | v -> Ok v
  | exception Proto.Nfs_error s -> Error (Proto.status_to_string s)
  | exception CC.Discfs_error m -> Error ("discfs: " ^ m)

(* The same client calls observe either world. *)
let world cc =
  let root = CC.root cc in
  {
    w_root = root;
    w_create =
      (fun name ->
        nfs_result (fun () ->
            let fh, _, _ = CC.create cc ~dir:root name () in
            fh));
    w_write = (fun fh data -> nfs_result (fun () -> CC.write_all cc fh data));
    w_read = (fun fh -> nfs_result (fun () -> CC.read_all cc fh));
    w_remove = (fun name -> nfs_result (fun () -> CC.remove cc root name));
    w_readdir = (fun () -> CC.readdir cc root);
  }

let single_world seed =
  let d = Cluster.make ~seed () in
  let u = CC.attach d ~identity:(Cluster.new_identity d) ~uid:1000 () in
  let cred =
    Cluster.admin_issue d
      ~licensees:(quoted (CC.principal u))
      ~conditions:(root_conditions (CC.root u) "RWX") ()
  in
  (match CC.submit_credential u cred with Ok _ -> () | Error e -> Alcotest.fail e);
  world u

let cluster_world seed =
  let _, ccs = csetup ~servers:4 ~seed () in
  world (List.hd ccs)

type eop =
  | ECreate of int (* slot *)
  | EWrite of int * int (* slot, payload tag *)
  | ERead of int
  | ERemove of int
  | EReaddir

let n_slots = 5

let gen_eop =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> ECreate s) (int_bound (n_slots - 1));
        map2 (fun s p -> EWrite (s, p)) (int_bound (n_slots - 1)) (int_bound 9);
        map (fun s -> ERead s) (int_bound (n_slots - 1));
        map (fun s -> ERemove s) (int_bound (n_slots - 1));
        return EReaddir;
      ])

let gen_eops = QCheck.Gen.list_size (QCheck.Gen.int_range 4 16) gen_eop

let run_world w ops =
  let obs = Buffer.create 256 in
  let note fmt = Printf.ksprintf (fun s -> Buffer.add_string obs (s ^ "\n")) fmt in
  let files = Array.make n_slots None in
  let string_of_res pp = function Ok v -> "ok:" ^ pp v | Error s -> "err:" ^ s in
  List.iter
    (fun op ->
      match op with
      | ECreate s ->
        let r = w.w_create (Printf.sprintf "s%d" s) in
        (match r with Ok fh -> files.(s) <- Some fh | Error _ -> ());
        note "create %d -> %s" s
          (string_of_res (fun (fh : Proto.fh) -> Printf.sprintf "%d.%d" fh.Proto.ino fh.Proto.gen) r)
      | EWrite (s, p) -> (
        match files.(s) with
        | None -> note "write %d -> nofile" s
        | Some fh ->
          note "write %d -> %s" s
            (string_of_res (fun () -> "()") (w.w_write fh (Printf.sprintf "payload-%d-%d" s p))))
      | ERead s -> (
        match files.(s) with
        | None -> note "read %d -> nofile" s
        | Some fh -> note "read %d -> %s" s (string_of_res (fun d -> d) (w.w_read fh)))
      | ERemove s ->
        let r = w.w_remove (Printf.sprintf "s%d" s) in
        (match r with Ok () -> files.(s) <- None | Error _ -> ());
        note "remove %d -> %s" s (string_of_res (fun () -> "()") r)
      | EReaddir ->
        let entries =
          List.filter (fun (n, _) -> n <> "." && n <> "..") (w.w_readdir ())
          |> List.sort compare
        in
        note "readdir -> %s"
          (String.concat ","
             (List.map (fun (n, ino) -> Printf.sprintf "%s:%d" n ino) entries)))
    ops;
  Buffer.contents obs

let eq_count = ref 0

let prop_cluster_equivalence ops =
  incr eq_count;
  let seed = Printf.sprintf "topo-eq-%d" !eq_count in
  let single = run_world (single_world seed) ops in
  let cluster = run_world (cluster_world seed) ops in
  if String.equal single cluster then true
  else
    QCheck.Test.fail_reportf "observations diverge:@.single:@.%s@.cluster:@.%s" single cluster

let prop_equivalence =
  QCheck.Test.make ~name:"sharded cluster is observationally a single server" ~count:8
    (QCheck.make gen_eops) prop_cluster_equivalence

(* --- byte determinism ------------------------------------------------- *)

(* Everything above is deterministic by construction; pin it. Two
   fresh runs of a workload that exercises sharding, redirects,
   leases and invalidation must agree on every byte of observable
   state: reads, stats counters and the virtual clock. *)
let determinism_run () =
  let c, ccs = csetup ~servers:3 ~clients:2 ~seed:"topo-det" () in
  let[@warning "-8"] [ a; b ] = ccs in
  let digest = Buffer.create 256 in
  let note fmt = Printf.ksprintf (fun s -> Buffer.add_string digest (s ^ "\n")) fmt in
  let fhs =
    List.map
      (fun i ->
        let fh, _, _ = CC.create a ~dir:(CC.root a) (Printf.sprintf "d%d" i) () in
        CC.write_all a fh (Printf.sprintf "body-%d" i);
        fh)
      [ 0; 1; 2; 3 ]
  in
  (* A reshard plus replica churn mid-workload, so the digest covers
     the interesting paths. *)
  let fh0 = List.hd fhs in
  let shard = Shard_map.shard_of (Cluster.map c) ~ino:fh0.Proto.ino in
  let owner = Shard_map.owner (Cluster.map c) ~ino:fh0.Proto.ino in
  Cluster.reshard c ~shard ~owner:((owner + 1) mod 3);
  (match Cluster.add_replica c ~shard ~server:owner with Ok () -> () | Error e -> Alcotest.fail e);
  List.iteri (fun i fh -> note "a reads %d: %s" i (CC.read_all a fh)) fhs;
  CC.write_all a fh0 "rewritten";
  note "a rereads 0: %s" (CC.read_all a fh0);
  ignore (CC.readdir b (CC.root b));
  note "clock %.9f" (Clock.now (Cluster.clock c));
  note "map v%d" (Shard_map.version (Cluster.map c));
  List.iter (fun (k, v) -> note "%s=%d" k v)
    (List.sort compare (Trace.Metrics.counters (Cluster.stats c)));
  Buffer.contents digest

let test_byte_determinism () =
  let first = determinism_run () in
  let second = determinism_run () in
  Alcotest.(check string) "double run byte-identical" first second

(* --- the Bonnie cluster backend --------------------------------------- *)

(* The uniform benchmark surface over the server set: a workload that
   knows nothing about shards must survive a reshard mid-stream. *)
let test_cluster_backend () =
  let b = Bonnie.Backend.discfs ~servers:3 () in
  let dir = b.Bonnie.Backend.mkdir b.Bonnie.Backend.root "bench" in
  let f = b.Bonnie.Backend.create dir "data" in
  b.Bonnie.Backend.write f ~off:0 "cluster-backed bytes";
  Alcotest.(check string) "read back" "cluster-backed bytes" (b.Bonnie.Backend.read f ~off:0 ~len:64);
  Alcotest.(check (list string)) "listing" [ "data" ] (b.Bonnie.Backend.readdir dir);
  let cluster, cc =
    match b.Bonnie.Backend.parts with
    | Some parts -> parts
    | None -> Alcotest.fail "no cluster behind the backend"
  in
  (* Move every file's shard out from under the cached map; the
     backend's reads must be corrected by redirects, not break. *)
  let m = Cluster.map cluster in
  for s = 0 to Shard_map.nshards m - 1 do
    Cluster.reshard cluster ~shard:s ~owner:(((Shard_map.shard m s).Shard_map.owner + 1) mod 3)
  done;
  Alcotest.(check string) "read back after total reshard" "cluster-backed bytes"
    (b.Bonnie.Backend.read f ~off:0 ~len:64);
  Alcotest.(check bool) "redirects happened" true
    (Stats.get (Cluster.stats cluster) "redirect.followed" >= 1);
  Alcotest.(check int) "map caught up" (Shard_map.version (Cluster.map cluster)) (CC.map_version cc)

(* --- one node: the cluster layer is inert ------------------------------ *)

(* [Cluster.make ()] is one node with no special case: every handle is
   served locally, so a full single-server life (create, write, read,
   crash, re-home inside the next call) must never touch the
   shard-map, redirect, lease or server-to-server machinery. *)
let test_one_node_inert () =
  let d = Cluster.make ~seed:"topo-one-node" () in
  let c = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let fh, _, _ = CC.create c ~dir:(CC.root c) "solo.dat" () in
  CC.write_all c fh "one node, no cluster traffic";
  let read () = CC.read_all c fh in
  Alcotest.(check string) "read back" "one node, no cluster traffic" (read ());
  Cluster.crash_and_restart d 0;
  Alcotest.(check string) "read after crash" "one node, no cluster traffic" (read ());
  let stats = Cluster.stats d in
  Alcotest.(check int) "re-homed once" 1 (Stats.get stats "client.reattaches");
  Alcotest.(check int) "one host" 1 (Stats.get stats "topo.hosts");
  Alcotest.(check int) "one restart" 1 (Cluster.node_restarts d 0);
  List.iter
    (fun k -> Alcotest.(check int) (k ^ " stays 0") 0 (Stats.get stats k))
    [ "topo.getmap"; "redirect.sent"; "topo.lease.grants"; "topo.s2s_connects" ]

(* Credential calls go to the home frontend alone, and a crash of the
   home recovers them as it does a routed call: the first attempt
   times out against the dead incarnation, the client reattaches and
   re-issues the call there. The call executes once, so a submission
   is stored once and a revocation answers [Ok] rather than finding
   its own earlier execution ("no such credential"). *)
let test_credentials_survive_home_crash () =
  let c = Cluster.make ~servers:2 ~seed:"topo-home-crash-creds" () in
  let admin = CC.attach c ~identity:(Cluster.admin_identity c) ~uid:0 ~home:0 () in
  let bob = CC.attach c ~identity:(Cluster.new_identity c) ~uid:100 ~home:0 () in
  let cred =
    Cluster.admin_issue c ~licensees:(quoted (CC.principal bob))
      ~conditions:(root_conditions (CC.root bob) "R") ()
  in
  let fingerprint = Assertion.fingerprint cred in
  let stats = Cluster.stats c in
  let count k = Stats.get stats k in
  let stored () =
    List.length
      (List.filter
         (fun a -> String.equal (Assertion.fingerprint a) fingerprint)
         (Keynote.Session.credentials (Server.session (Cluster.node_server c 0))))
  in
  Cluster.crash_and_restart c 0;
  let submissions = count "discfs.submissions" and reattaches = count "client.reattaches" in
  (match CC.submit_credential bob cred with
  | Ok fp -> Alcotest.(check string) "submit answers with the fingerprint" fingerprint fp
  | Error e -> Alcotest.failf "submit after a home crash: %s" e);
  Alcotest.(check int) "submit executed once" 1 (count "discfs.submissions" - submissions);
  Alcotest.(check int) "stored once" 1 (stored ());
  Alcotest.(check int) "the submitter re-homed" 1 (count "client.reattaches" - reattaches);
  Cluster.crash_and_restart c 0;
  (match CC.revoke_credential admin ~fingerprint with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revoke after a home crash: %s" e);
  Alcotest.(check int) "revoked" 0 (stored ());
  Alcotest.(check int) "the revoker re-homed" 2 (count "client.reattaches" - reattaches)

let suite =
  [
    Alcotest.test_case "shard map: striping, serving, codec" `Quick test_shard_map_unit;
    Alcotest.test_case "cluster smoke: create/write/read" `Quick test_cluster_smoke;
    Alcotest.test_case "detach poisons the handle" `Quick test_detach_poisons;
    Alcotest.test_case "revocation reaches every frontend" `Quick
      test_revocation_every_frontend;
    Alcotest.test_case "revoked before a lazy attach stays revoked" `Quick
      test_revoked_before_lazy_attach;
    Alcotest.test_case "reshard: stale map corrected by signed redirect" `Quick
      test_reshard_redirects;
    Alcotest.test_case "forged redirect is refused" `Quick test_redirect_bad_signature;
    Alcotest.test_case "redirect loop stops at the hop bound" `Quick test_redirect_loop_bound;
    Alcotest.test_case "replica serves reads only, under a live lease" `Quick
      test_replica_serves_only_reads;
    Alcotest.test_case "crash + reshard: timeout, reattach, refreshed map" `Quick
      test_stale_map_crash_recovery;
    Alcotest.test_case "crash under a survivor's in-flight write" `Quick
      test_crash_under_survivor_write;
    QCheck_alcotest.to_alcotest ~long:false prop_equivalence;
    Alcotest.test_case "byte determinism across fresh runs" `Quick test_byte_determinism;
    Alcotest.test_case "bonnie backend over the cluster" `Quick test_cluster_backend;
    Alcotest.test_case "one node: cluster layer inert through a crash" `Quick
      test_one_node_inert;
    Alcotest.test_case "credential calls recover from a home crash, once" `Quick
      test_credentials_survive_home_crash;
  ]
