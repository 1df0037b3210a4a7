(* Robustness under injected faults: lossy links, scripted disk
   errors, at-least-once RPC with the duplicate-request cache, SA
   re-keying, and server crash/recovery. Everything is seeded and
   deterministic: a failure here reproduces byte-for-byte. *)

module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Link = Simnet.Link
module Fault = Simnet.Fault
module Rpc = Oncrpc.Rpc
module Proto = Nfs.Proto
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Server = Discfs.Server

(* --- link-level fault actions ---------------------------------------- *)

let test_link_fault_actions () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let fault = Fault.create ~seed:"link-unit" () in
  Link.set_fault link (Some fault);
  Fault.set_net fault { Fault.drop = 1.0; duplicate = 0.0; reorder = 0.0; corrupt = 0.0 };
  Alcotest.(check (list string)) "dropped" [] (Link.send link "hello");
  Alcotest.(check int) "drop counted" 1 (Stats.get stats "link.drops");
  Fault.set_net fault { Fault.drop = 0.0; duplicate = 1.0; reorder = 0.0; corrupt = 0.0 };
  Alcotest.(check (list string)) "duplicated" [ "hello"; "hello" ] (Link.send link "hello");
  Fault.set_net fault { Fault.drop = 0.0; duplicate = 0.0; reorder = 0.0; corrupt = 1.0 };
  (match Link.send link "hello" with
  | [ p ] ->
    Alcotest.(check int) "corrupt keeps length" 5 (String.length p);
    Alcotest.(check bool) "corrupt changes bytes" true (p <> "hello")
  | l -> Alcotest.failf "corrupt delivered %d packets" (List.length l));
  (* Reorder: the packet is held and released behind the next packet
     on the same flow; other flows are unaffected. *)
  Fault.set_net fault { Fault.drop = 0.0; duplicate = 0.0; reorder = 1.0; corrupt = 0.0 };
  Alcotest.(check (list string)) "held" [] (Link.send link ~flow:3 "first");
  Alcotest.(check (list string)) "released behind successor" [ "second"; "first" ]
    (Link.send link ~flow:3 "second");
  Fault.set_net fault Fault.no_net;
  Alcotest.(check (list string)) "other flow clean" [ "x" ] (Link.send link ~flow:9 "x")

(* --- scripted disk faults --------------------------------------------- *)

let test_blockdev_scripted_faults () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:16 ~block_size:512 ()
  in
  let fault = Fault.create ~seed:"disk-unit" () in
  Ffs.Blockdev.set_fault dev (Some fault);
  let block = Bytes.make 512 'a' in
  Ffs.Blockdev.write dev 3 block (* op 0 *);
  Fault.script_disk fault
    [ (1, Fault.Fail_read); (3, Fault.Corrupt_read); (4, Fault.Fail_write) ];
  (match Ffs.Blockdev.read dev 3 (* op 1 *) with
  | exception Ffs.Blockdev.Io_error _ -> ()
  | _ -> Alcotest.fail "scripted read fault did not fire");
  Alcotest.(check string) "clean read between faults" (Bytes.to_string block)
    (Bytes.to_string (Ffs.Blockdev.read dev 3 (* op 2 *)));
  Alcotest.(check bool) "corrupt read differs" true
    (Bytes.to_string (Ffs.Blockdev.read dev 3 (* op 3 *)) <> Bytes.to_string block);
  (match Ffs.Blockdev.write dev 3 (Bytes.make 512 'b') (* op 4 *) with
  | exception Ffs.Blockdev.Io_error _ -> ()
  | () -> Alcotest.fail "scripted write fault did not fire");
  (* The failed write did not reach the platter. *)
  Alcotest.(check string) "block intact after failed write" (Bytes.to_string block)
    (Bytes.to_string (Ffs.Blockdev.read dev 3 (* op 5 *)));
  Alcotest.(check int) "io errors counted" 2 (Stats.get stats "disk.io_errors")

(* --- replay window: model-based property ------------------------------ *)

let prop_replay_window_model =
  (* Reference model: a sequence number is accepted exactly once, and
     only while it is within 62 of the highest number seen. *)
  QCheck.Test.make ~name:"replay window matches reference model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) (int_range 0 150)))
    (fun seqs ->
      let clock = Clock.create () in
      let stats = Stats.create () in
      let sa =
        Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:1
          ~key:(String.make 32 'k') ()
      in
      let top = ref 0 in
      let seen = Hashtbl.create 64 in
      let model seq =
        if seq <= 0 then false
        else if Hashtbl.mem seen seq then false
        else if seq > !top then begin
          Hashtbl.replace seen seq ();
          top := seq;
          true
        end
        else if !top - seq >= 63 then false
        else begin
          Hashtbl.replace seen seq ();
          true
        end
      in
      List.for_all (fun seq -> Ipsec.Sa.replay_check sa seq = model seq) seqs)

(* --- duplicate-request cache ------------------------------------------ *)

let all_duplicates = { Fault.drop = 0.0; duplicate = 1.0; reorder = 0.0; corrupt = 0.0 }

(* An injector that applies [net] to every packet from the start. *)
let net_fault net ~seed =
  let f = Fault.create ~seed () in
  Fault.set_net f net;
  f

let root_listing fs =
  List.filter_map
    (fun (name, ino) ->
      if name = "." || name = ".." then None
      else begin
        let attr = Ffs.Fs.getattr fs ino in
        Some (name, Ffs.Fs.read fs ino ~off:0 ~len:attr.Ffs.Inode.a_size)
      end)
    (Ffs.Fs.readdir fs (Ffs.Fs.root fs))
  |> List.sort compare

let test_drc_dedups_duplicates () =
  (* Plaintext NFS with every datagram doubled: the server sees each
     request twice and must execute it once, answering the copy from
     the duplicate-request cache. *)
  let d = Cfs.Cfs_ne.deploy () in
  let nfs, root = Cfs.Cfs_ne.connect d in
  let fault = net_fault all_duplicates ~seed:"drc-unit" in
  Link.set_fault d.Cfs.Cfs_ne.link (Some fault);
  let fh, _ = Nfs.Client.create_file nfs root "once" Proto.sattr_none in
  ignore (Nfs.Client.write nfs fh ~off:0 "payload");
  Nfs.Client.remove nfs root "once";
  Alcotest.(check int) "every duplicate hit the cache" 3 (Stats.get d.Cfs.Cfs_ne.stats "rpc.drc_hits");
  Alcotest.(check (list (pair string string))) "final state clean" []
    (root_listing d.Cfs.Cfs_ne.fs)

(* A duplicated datagram arrives as two buffers, so a receiver that
   opens one in place leaves the other exactly as it was sent. Over
   ESP, with every datagram doubled, the server opens the first copy
   in place and executes the call once; the second copy reaches the
   replay window still byte-identical to the sealed request (so it is
   refused as a replay, not as a forgery). *)
let test_duplicates_are_distinct_buffers () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  Link.set_fault link (Some (net_fault all_duplicates ~seed:"dup-buffers"));
  (match Link.send link "sent once" with
  | [ a; b ] ->
    Alcotest.(check string) "equal copies" a b;
    Alcotest.(check bool) "physically distinct copies" false (a == b)
  | l -> Alcotest.failf "a duplicate delivered %d packets" (List.length l));
  let drbg = Dcrypto.Drbg.create ~seed:"dup-esp" in
  let initiator = Dcrypto.Dsa.generate_key drbg in
  let responder = Dcrypto.Dsa.generate_key drbg in
  let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
  let srv = Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
  let executed = ref 0 in
  Rpc.register srv ~prog:77 ~vers:1 (fun ~conn:_ ~proc:_ ~args e ->
      incr executed;
      Xdr.Enc.raw e (Xdr.Dec.rest args);
      Ok ());
  let esp = Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep in
  let sealed = ref [] and arrived = ref [] in
  let channel =
    {
      esp with
      Rpc.client_seal =
        (fun a ->
          let p = esp.Rpc.client_seal a in
          sealed := String.sub p 0 (String.length p) :: !sealed;
          p);
      server_open =
        (fun p ->
          arrived := p :: !arrived;
          esp.Rpc.server_open p);
    }
  in
  let client = Rpc.connect ~link ~channel ~peer:server_ep.Ipsec.Ike.peer srv in
  let reply = Rpc.call client ~prog:77 ~vers:1 ~proc:1 (fun e -> Xdr.Enc.raw e "once only") in
  Alcotest.(check string) "echoed" "once only" (Xdr.Dec.rest reply);
  Alcotest.(check int) "executed once" 1 !executed;
  Alcotest.(check int) "the copy dropped" 1 (Stats.get stats "rpc.server_rx_drops");
  match (!sealed, !arrived) with
  | [ request ], [ copy; first ] ->
    Alcotest.(check bool) "two buffers" false (copy == first);
    Alcotest.(check bool) "the first was opened in place" false (String.equal first request);
    Alcotest.(check string) "the copy is as sealed" request copy
  | s, a -> Alcotest.failf "%d sealed, %d arrived" (List.length s) (List.length a)

type op = OpCreate of int | OpRemove of int | OpWrite of int * string

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (map2
         (fun kind (n, data) ->
           match kind with
           | 0 -> OpCreate n
           | 1 -> OpRemove n
           | _ -> OpWrite (n, data))
         (int_bound 2)
         (pair (int_bound 3) small_string)))

let apply_ops ~net ops =
  let d = Cfs.Cfs_ne.deploy () in
  let nfs, root = Cfs.Cfs_ne.connect d in
  (match net with
  | None -> ()
  | Some net -> Link.set_fault d.Cfs.Cfs_ne.link (Some (net_fault net ~seed:"drc-prop")));
  let name n = Printf.sprintf "f%d" n in
  List.iter
    (fun op ->
      try
        match op with
        | OpCreate n -> ignore (Nfs.Client.create_file nfs root (name n) Proto.sattr_none)
        | OpRemove n -> Nfs.Client.remove nfs root (name n)
        | OpWrite (n, data) ->
          let fh =
            try fst (Nfs.Client.lookup nfs root (name n))
            with Proto.Nfs_error _ ->
              fst (Nfs.Client.create_file nfs root (name n) Proto.sattr_none)
          in
          ignore (Nfs.Client.write nfs fh ~off:0 data)
      with Proto.Nfs_error _ -> ())
    ops;
  (root_listing d.Cfs.Cfs_ne.fs, d)

let prop_drc_idempotent =
  (* Non-idempotent schedules (CREATE/REMOVE/WRITE) under heavy
     duplication must leave the filesystem in exactly the state a
     clean network produces. *)
  QCheck.Test.make ~name:"duplicated schedules leave identical fs state" ~count:30
    (QCheck.make gen_ops) (fun ops ->
      let clean, _ = apply_ops ~net:None ops in
      let faulty, d = apply_ops ~net:(Some { all_duplicates with Fault.duplicate = 0.5 }) ops in
      let dups = Stats.get d.Cfs.Cfs_ne.stats "link.dups" in
      let hits = Stats.get d.Cfs.Cfs_ne.stats "rpc.drc_hits" in
      clean = faulty && hits <= dups)

(* --- DRC eviction under capacity pressure ----------------------------- *)

let test_drc_lru_eviction () =
  (* Drive the server at the wire level with hand-picked xids so we
     control exactly which DRC entries exist. Capacity 4; a hit must
     refresh an entry's LRU position, and an evicted entry must be
     re-executed (at-least-once semantics) with an identical reply. *)
  let clock = Clock.create () in
  let stats = Stats.create () in
  let srv = Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
  Rpc.set_drc_capacity srv 4;
  let executions = Hashtbl.create 8 in
  Rpc.register srv ~prog:7 ~vers:1 (fun ~conn:_ ~proc ~args e ->
      let n = try Hashtbl.find executions proc with Not_found -> 0 in
      Hashtbl.replace executions proc (n + 1);
      Xdr.Enc.raw e (Printf.sprintf "reply-%d:%s" proc (Xdr.Dec.rest args));
      Ok ());
  let conn = { Rpc.peer = "client-1"; uid = 0 } in
  let call xid =
    match Wire_oracle.dispatch srv ~conn (Rpc.encode_call ~xid ~prog:7 ~vers:1 ~proc:xid ~uid:0 "x") with
    | None -> Alcotest.fail "server dropped a well-formed call"
    | Some datagram ->
      let rxid, result = Wire_oracle.decode_reply datagram in
      Alcotest.(check int) "xid echoed" xid rxid;
      (match result with
      | Ok body -> body
      | Error _ -> Alcotest.fail "unexpected RPC-level error")
  in
  let execs proc = try Hashtbl.find executions proc with Not_found -> 0 in
  (* Fill the cache: A=1 B=2 C=3 D=4 (LRU order A..D). *)
  let reply_a = call 1 in
  List.iter (fun xid -> ignore (call xid)) [ 2; 3; 4 ];
  Alcotest.(check int) "no eviction at capacity" 0 (Stats.get stats "rpc.drc_evictions");
  (* Replay A: answered from cache, and A moves to most-recently-used. *)
  Alcotest.(check string) "cached reply is byte-identical" reply_a (call 1);
  Alcotest.(check int) "hit did not re-execute" 1 (execs 1);
  Alcotest.(check int) "one DRC hit" 1 (Stats.get stats "rpc.drc_hits");
  (* E pushes the cache past capacity: B (now least recent) goes, not A. *)
  ignore (call 5);
  Alcotest.(check int) "one eviction" 1 (Stats.get stats "rpc.drc_evictions");
  Alcotest.(check string) "A survived (refreshed by the hit)" reply_a (call 1);
  Alcotest.(check int) "A still executed once" 1 (execs 1);
  (* B was evicted: its retransmission re-executes, reply unchanged. *)
  let reply_b = call 2 in
  Alcotest.(check int) "evicted entry re-executed" 2 (execs 2);
  Alcotest.(check string) "re-execution gives the same reply" "reply-2:x" reply_b;
  (* Shrinking capacity evicts immediately, oldest first. *)
  Rpc.set_drc_capacity srv 1;
  Alcotest.(check int) "shrink evicts down to capacity" 5
    (Stats.get stats "rpc.drc_evictions");
  (* Capacity 0 disables caching entirely: every retransmit re-executes. *)
  Rpc.set_drc_capacity srv 0;
  ignore (call 6);
  ignore (call 6);
  Alcotest.(check int) "no caching at capacity 0" 2 (execs 6)

(* --- ESP boundary: corrupted packets are dropped, not fatal ----------- *)

let test_esp_corruption_dropped () =
  let fault =
    net_fault { Fault.drop = 0.0; duplicate = 0.0; reorder = 0.0; corrupt = 0.25 }
      ~seed:"esp-corrupt"
  in
  let d = Cluster.make ~seed:"esp-corrupt" ~fault () in
  (* A quarter of packets corrupted means ~44% of attempts fail; give
     the client enough retransmissions to ride it out. *)
  let retry = { Rpc.default_retry with Rpc.max_attempts = 12 } in
  let alice = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 ~retry () in
  let root = CC.root alice in
  let fh, _, _ = CC.create alice ~dir:root "noisy.txt" in
  CC.write_all alice fh "intact despite the noise";
  for _ = 1 to 20 do
    let _, data = CC.read alice fh ~off:0 ~count:100 in
    Alcotest.(check string) "reads stay correct" "intact despite the noise" data
  done;
  let get k = Stats.get (Cluster.stats d) k in
  Alcotest.(check bool) "corruptions occurred" true (get "link.corruptions" > 0);
  Alcotest.(check bool) "boundary dropped bad packets" true
    (get "rpc.server_rx_drops" + get "rpc.client_rx_drops" > 0);
  Alcotest.(check bool) "client retried through it" true (get "rpc.retransmits" > 0)

(* --- SA soft lifetime and abbreviated rekey --------------------------- *)

let test_ike_rekey () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let drbg = Dcrypto.Drbg.create ~seed:"rekey-unit" in
  let initiator = Dcrypto.Dsa.generate_key drbg in
  let responder = Dcrypto.Dsa.generate_key drbg in
  let c, s = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder ~lifetime:4 () in
  Alcotest.(check bool) "fresh sa not expired" false (Ipsec.Sa.soft_expired c.Ipsec.Ike.tx);
  for _ = 1 to 4 do
    ignore (Ipsec.Esp.seal c.Ipsec.Ike.tx "tick")
  done;
  Alcotest.(check bool) "soft-expired at lifetime" true (Ipsec.Sa.soft_expired c.Ipsec.Ike.tx);
  let t0 = Clock.now clock in
  let c2, s2 = Ipsec.Ike.rekey ~link ~drbg ~client:c ~server:s () in
  let rekey_time = Clock.now clock -. t0 in
  Alcotest.(check bool) "new tx key" true
    (not
       (String.equal
          (Dcrypto.Secret.reveal (Ipsec.Sa.key c2.Ipsec.Ike.tx))
          (Dcrypto.Secret.reveal (Ipsec.Sa.key c.Ipsec.Ike.tx))));
  Alcotest.(check string) "peer preserved" c.Ipsec.Ike.peer c2.Ipsec.Ike.peer;
  Alcotest.(check int) "lifetime carried over" 4 (Ipsec.Sa.lifetime c2.Ipsec.Ike.tx);
  let pkt = Ipsec.Esp.seal c2.Ipsec.Ike.tx "fresh keys" in
  Alcotest.(check string) "new SAs interoperate" "fresh keys"
    (Ipsec.Esp.open_ s2.Ipsec.Ike.rx pkt);
  Alcotest.(check int) "rekey counted" 1 (Stats.get stats "ike.rekeys");
  (* Quick mode is cheap: no public-key operations. *)
  let t1 = Clock.now clock in
  ignore (Ipsec.Ike.establish ~link ~drbg ~initiator ~responder ());
  let handshake_time = Clock.now clock -. t1 in
  Alcotest.(check bool) "much cheaper than main mode" true
    (rekey_time < handshake_time /. 5.0)

let test_client_auto_rekey () =
  (* A client attached with a small SA lifetime re-keys transparently
     mid-workload; traffic is uninterrupted. *)
  let d = Cluster.make ~seed:"auto-rekey" () in
  let alice = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 ~sa_lifetime:6 () in
  let root = CC.root alice in
  let fh, _, _ = CC.create alice ~dir:root "r.txt" in
  CC.write_all alice fh "rekey survives";
  for _ = 1 to 15 do
    let _, data = CC.read alice fh ~off:0 ~count:100 in
    Alcotest.(check string) "content across rekeys" "rekey survives" data
  done;
  Alcotest.(check bool) "rekeys happened" true (Stats.get (Cluster.stats d) "ike.rekeys" >= 2)

(* --- disk faults surface as NFS EIO ----------------------------------- *)

let test_disk_fault_maps_to_eio () =
  let fault = Fault.create ~seed:"disk-eio" () in
  let d = Cluster.make ~seed:"disk-eio" ~fault () in
  let alice = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root alice in
  let fh, _, _ = CC.create alice ~dir:root "frail.txt" in
  CC.write_all alice fh "fragile data";
  Fault.script_disk fault [ (Fault.disk_ops fault, Fault.Fail_read) ];
  (match CC.read alice fh ~off:0 ~count:100 with
  | exception Proto.Nfs_error e -> Alcotest.(check int) "EIO" Proto.nfserr_io e
  | _ -> Alcotest.fail "scripted disk fault did not surface");
  (* The dispatch loop survived; the next read is clean. *)
  let _, data = CC.read alice fh ~off:0 ~count:100 in
  Alcotest.(check string) "healthy after the error" "fragile data" data

(* --- end-to-end: 5% loss + mid-run server crash ----------------------- *)

(* A fig12-style workload: build a small source tree over NFS, then
   walk it reading every file. The faulty run must produce the exact
   bytes the fault-free run does. *)

let e2e_tree =
  List.concat_map
    (fun d ->
      List.map
        (fun f ->
          let name = Printf.sprintf "src_%d_%d.c" d f in
          let line = Printf.sprintf "int var_%d_%d = %d;\n" d f ((d * 31) + f) in
          let buf = Buffer.create 2048 in
          for _ = 1 to 40 + (d * 7) + f do
            Buffer.add_string buf line
          done;
          (Printf.sprintf "sys%d" d, name, Buffer.contents buf))
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2 ]

let run_e2e ~lossy ~crash_at () =
  let fault = Fault.create ~seed:"e2e-fault" () in
  let d = Cluster.make ~seed:"e2e" ~fault () in
  let alice = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  (* Build the tree over NFS on a clean network. *)
  let dirs = Hashtbl.create 4 in
  List.iter
    (fun (dir, file, content) ->
      let dfh =
        match Hashtbl.find_opt dirs dir with
        | Some fh -> fh
        | None ->
          let fh, _ = CC.nfs_mkdir alice (CC.root alice) dir Proto.sattr_none in
          Hashtbl.replace dirs dir fh;
          fh
      in
      let fh, _ = CC.nfs_create alice dfh file Proto.sattr_none in
      CC.write_all alice fh content)
    e2e_tree;
  if lossy then Fault.set_net fault (Fault.lossy 0.05);
  (* The measured walk; optionally the server dies partway through.
     The first call to reach the dead incarnation times out, and the
     client re-attaches to the new one (fresh IKE + MOUNT) and
     re-issues it, all inside that call. *)
  let results =
    List.mapi
      (fun i (dir, file, _) ->
        if crash_at = Some i then Cluster.crash_and_restart d 0;
        let dfh, _ = CC.lookup alice (CC.root alice) dir in
        let fh, _ = CC.lookup alice dfh file in
        (dir, file, CC.read_all alice fh))
      e2e_tree
  in
  (results, d)

let test_e2e_loss_and_crash () =
  let clean, _ = run_e2e ~lossy:false ~crash_at:None () in
  List.iter2
    (fun (_, _, expect) (dir, file, got) ->
      if expect <> got then Alcotest.failf "clean run corrupted %s/%s" dir file)
    e2e_tree clean;
  let faulty, d = run_e2e ~lossy:true ~crash_at:(Some 6) () in
  Alcotest.(check bool) "byte-identical to fault-free run" true (clean = faulty);
  let get k = Stats.get (Cluster.stats d) k in
  Alcotest.(check bool) "packets were dropped" true (get "link.drops" > 0);
  Alcotest.(check bool) "client retransmitted" true (get "rpc.retransmits" > 0);
  Alcotest.(check int) "exactly one restart" 1 (get "server.restarts");
  Alcotest.(check bool) "audit trail survived the crash" true
    (List.length (Server.audit_log (Cluster.node_server d 0)) > 0)

(* --- lossy profile normalization (regression) ------------------------- *)

(* Before the fix, [lossy p] for p > 4/7 pushed the raw probability
   sum past 1.0; the cascade (drop, then duplicate, then reorder,
   then corrupt) consumed the probability mass in order, so Corrupt —
   last in line — was starved down to nothing while drop stayed at
   its nominal rate. The profile is now scaled back onto the simplex,
   preserving the 4:1:1:1 ratio. *)
let test_lossy_normalized () =
  let n = Fault.lossy 0.8 in
  let sum = n.Fault.drop +. n.Fault.duplicate +. n.Fault.reorder +. n.Fault.corrupt in
  Alcotest.(check (float 1e-9)) "p=0.8 scaled onto the simplex" 1.0 sum;
  Alcotest.(check (float 1e-9)) "4:1 drop/corrupt ratio kept" 4.0
    (n.Fault.drop /. n.Fault.corrupt);
  let m = Fault.lossy 0.4 in
  Alcotest.(check (float 1e-9)) "p=0.4 already feasible: untouched" 0.4 m.Fault.drop;
  Alcotest.(check (float 1e-9)) "p=0.4 corrupt untouched" 0.1 m.Fault.corrupt;
  Alcotest.check_raises "p outside [0,1] rejected"
    (Invalid_argument "Fault.lossy: p outside [0, 1]") (fun () -> ignore (Fault.lossy 1.5));
  (* With p = 1.0 every packet must still draw a fault — and Corrupt
     must actually occur, which the un-normalized cascade never let
     happen. *)
  let f = net_fault (Fault.lossy 1.0) ~seed:"lossy-sat" in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 500 do
    let a = Fault.net_decide f in
    Hashtbl.replace seen a ();
    if a = Fault.Deliver then Alcotest.fail "p=1 delivered a packet intact"
  done;
  Alcotest.(check bool) "corrupt no longer starved" true (Hashtbl.mem seen Fault.Corrupt)

let prop_lossy_simplex =
  QCheck.Test.make ~name:"lossy profiles stay on the probability simplex" ~count:200
    (QCheck.make ~print:string_of_float QCheck.Gen.(float_bound_inclusive 1.0))
    (fun p ->
      let n = Fault.lossy p in
      let sum = n.Fault.drop +. n.Fault.duplicate +. n.Fault.reorder +. n.Fault.corrupt in
      sum <= 1.0 +. 1e-9
      && n.Fault.drop >= 0.0 && n.Fault.duplicate >= 0.0
      && n.Fault.reorder >= 0.0 && n.Fault.corrupt >= 0.0)

(* --- Rng.int_below modulo bias (regression) --------------------------- *)

let test_int_below_unbiased () =
  (* n = 3 * 2^60 against 63-bit raw draws: 2^63 mod n = 2^61, so the
     old plain-modulo reduction hit [0, 2^61) three times for every
     two hits on [2^61, 3*2^60) — P(x < 2^61) was 0.75 instead of the
     uniform 2/3. Rejection sampling brings it back: with 4000 draws
     the biased estimator concentrates near 3000, the unbiased one
     near 2667. *)
  let rng = Fault.Rng.create ~seed:"bias-sat" in
  let n = 3 * (1 lsl 60) in
  let threshold = 1 lsl 61 in
  let below = ref 0 in
  for _ = 1 to 4000 do
    let x = Fault.Rng.int_below rng n in
    if x < 0 || x >= n then Alcotest.fail "int_below out of range";
    if x < threshold then incr below
  done;
  Alcotest.(check bool)
    (Printf.sprintf "no modulo bias (%d/4000 below 2^61, biased ~3000)" !below)
    true
    (!below < 2820);
  (* Small bounds stay uniform too: n = 7 over 7000 draws, every
     residue within 10%% of the expected 1000. *)
  let buckets = Array.make 7 0 in
  for _ = 1 to 7000 do
    let x = Fault.Rng.int_below rng 7 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 900 || c > 1100 then Alcotest.failf "residue %d drawn %d times (expected ~1000)" i c)
    buckets

(* --- reorder hold slots flushed on quiesce (regression) --------------- *)

let test_quiesce_flushes_held_packets () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let fault = Fault.create ~seed:"quiesce-unit" () in
  Link.set_fault link (Some fault);
  Fault.set_net fault { Fault.drop = 0.0; duplicate = 0.0; reorder = 1.0; corrupt = 0.0 };
  Alcotest.(check (list string)) "packet parked in the hold slot" []
    (Link.send link ~flow:3 "held");
  Alcotest.(check int) "one packet flushed" 1 (Link.quiesce link);
  Alcotest.(check int) "accounted under quiesce drops" 1
    (Stats.get stats "link.quiesce_drops");
  Alcotest.(check bool) "and under total drops" true (Stats.get stats "link.drops" >= 1);
  Alcotest.(check (float 1e-9)) "flow wire marked idle" 0.0 (Link.busy_until link 3);
  Alcotest.(check int) "nothing left to flush" 0 (Link.quiesce link);
  (* The packet is really gone: the next send on the flow is not
     preceded by the stale hold. *)
  Fault.set_net fault Fault.no_net;
  Alcotest.(check (list string)) "held packet did not resurface" [ "fresh" ]
    (Link.send link ~flow:3 "fresh")

let test_crash_flushes_held_packets () =
  (* End to end: a packet parked for reordering when the server
     crashes must die with it — before the fix it lingered invisibly
     into the next incarnation, neither delivered nor counted. *)
  let fault = Fault.create ~seed:"crash-flush" () in
  let d = Cluster.make ~fault ~seed:"crash-flush-deploy" () in
  let alice = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  ignore alice;
  Fault.set_net fault { Fault.drop = 0.0; duplicate = 0.0; reorder = 1.0; corrupt = 0.0 };
  Alcotest.(check (list string)) "packet held at crash time" []
    (Link.send (Cluster.node_link d 0) ~flow:5 "in-flight");
  Fault.set_net fault Fault.no_net;
  Cluster.crash_and_restart d 0;
  Alcotest.(check int) "held packet flushed as a drop" 1
    (Stats.get (Cluster.stats d) "link.quiesce_drops")

let suite =
  [
    Alcotest.test_case "link fault actions" `Quick test_link_fault_actions;
    Alcotest.test_case "scripted disk faults" `Quick test_blockdev_scripted_faults;
    QCheck_alcotest.to_alcotest prop_replay_window_model;
    Alcotest.test_case "drc dedups duplicated requests" `Quick test_drc_dedups_duplicates;
    QCheck_alcotest.to_alcotest prop_drc_idempotent;
    Alcotest.test_case "drc lru eviction" `Quick test_drc_lru_eviction;
    Alcotest.test_case "esp corruption dropped at boundary" `Quick test_esp_corruption_dropped;
    Alcotest.test_case "ike abbreviated rekey" `Quick test_ike_rekey;
    Alcotest.test_case "client auto-rekey at soft lifetime" `Quick test_client_auto_rekey;
    Alcotest.test_case "disk fault maps to EIO" `Quick test_disk_fault_maps_to_eio;
    Alcotest.test_case "e2e: 5% loss + server crash" `Quick test_e2e_loss_and_crash;
    Alcotest.test_case "lossy profile normalized onto simplex" `Quick test_lossy_normalized;
    QCheck_alcotest.to_alcotest prop_lossy_simplex;
    Alcotest.test_case "int_below has no modulo bias" `Quick test_int_below_unbiased;
    Alcotest.test_case "quiesce flushes reorder holds" `Quick
      test_quiesce_flushes_held_packets;
    Alcotest.test_case "crash flushes held packets" `Quick test_crash_flushes_held_packets;
    Alcotest.test_case "duplicates are distinct buffers, executed once over esp" `Quick
      test_duplicates_are_distinct_buffers;
  ]
