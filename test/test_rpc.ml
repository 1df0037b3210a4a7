(* XDR codec and ONC RPC call/dispatch over the simulated link. *)

module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Link = Simnet.Link
module Rpc = Oncrpc.Rpc

let test_xdr_ints () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 0;
  Xdr.Enc.uint32 e 0xdeadbeef;
  Xdr.Enc.uint64 e 0x1122334455667788L;
  let d = Xdr.Dec.of_string (Xdr.Enc.to_string e) in
  Alcotest.(check int) "zero" 0 (Xdr.Dec.uint32 d);
  Alcotest.(check int) "large u32" 0xdeadbeef (Xdr.Dec.uint32 d);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Xdr.Dec.uint64 d);
  Xdr.Dec.expect_end d;
  Alcotest.check_raises "u32 range" (Invalid_argument "Xdr.Enc.uint32: out of range")
    (fun () -> Xdr.Enc.uint32 (Xdr.Enc.create ()) (-1))

let test_xdr_opaque_padding () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e "abcde";
  (* 4 length + 5 data + 3 pad *)
  Alcotest.(check int) "padded length" 12 (String.length (Xdr.Enc.to_string e));
  let d = Xdr.Dec.of_string (Xdr.Enc.to_string e) in
  Alcotest.(check string) "roundtrip" "abcde" (Xdr.Dec.opaque d);
  Xdr.Dec.expect_end d

let test_xdr_truncation () =
  let d = Xdr.Dec.of_string "\000\000" in
  Alcotest.check_raises "truncated" (Xdr.Decode_error "truncated XDR data") (fun () ->
      ignore (Xdr.Dec.uint32 d));
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 100;
  let d = Xdr.Dec.of_string (Xdr.Enc.to_string e) in
  Alcotest.check_raises "opaque longer than data" (Xdr.Decode_error "truncated XDR data")
    (fun () -> ignore (Xdr.Dec.opaque d));
  (* A view ends where its range does, not where its string does. *)
  let s = "\000\000\000\007\000\000\000\002tag!" in
  let d = Xdr.Dec.sub s ~off:4 ~len:4 in
  Alcotest.(check int) "view remaining" 4 (Xdr.Dec.remaining d);
  Alcotest.(check int) "decodes inside the view" 2 (Xdr.Dec.uint32 d);
  Alcotest.check_raises "stops at the view's end" (Xdr.Decode_error "truncated XDR data")
    (fun () -> ignore (Xdr.Dec.uint32 d));
  Alcotest.(check string) "rest of a view is its own bytes" "\000\000\000\002"
    (Xdr.Dec.rest (Xdr.Dec.sub s ~off:4 ~len:4));
  Alcotest.check_raises "range outside the string" (Invalid_argument "Xdr.Dec.sub: bad range")
    (fun () -> ignore (Xdr.Dec.sub s ~off:9 ~len:4))

let prop_xdr_roundtrip =
  QCheck.Test.make ~name:"xdr mixed roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(triple (int_bound 0xffffffff) small_string bool))
    (fun (n, s, b) ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.uint32 e n;
      Xdr.Enc.string e s;
      Xdr.Enc.bool e b;
      let d = Xdr.Dec.of_string (Xdr.Enc.to_string e) in
      let n' = Xdr.Dec.uint32 d in
      let s' = Xdr.Dec.string d in
      let b' = Xdr.Dec.bool d in
      Xdr.Dec.expect_end d;
      n = n' && s = s' && b = b')

(* Pre-marshalled arguments, as a {!Rpc.call} argument writer. *)
let raw s e = Xdr.Enc.raw e s

(* An echo/add test service. *)
let make_service () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let srv = Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
  Rpc.register srv ~prog:77 ~vers:1 (fun ~conn ~proc ~args e ->
      match proc with
      | 0 -> Ok ()
      | 1 ->
        Xdr.Enc.raw e (Xdr.Dec.rest args) (* echo *);
        Ok ()
      | 2 ->
        let a = Xdr.Dec.uint32 args in
        let b = Xdr.Dec.uint32 args in
        Xdr.Enc.uint32 e (a + b);
        Ok ()
      | 3 ->
        Xdr.Enc.string e (Printf.sprintf "peer=%s uid=%d" conn.Rpc.peer conn.Rpc.uid);
        Ok ()
      | _ -> Error Rpc.Proc_unavail);
  (clock, stats, link, srv)

let test_rpc_echo () =
  let _, stats, link, srv = make_service () in
  let client = Rpc.connect ~link srv in
  Alcotest.(check string) "null" ""
    (Xdr.Dec.rest (Rpc.call client ~prog:77 ~vers:1 ~proc:0 (raw "")));
  Alcotest.(check string) "echo" "payload!"
    (Xdr.Dec.rest (Rpc.call client ~prog:77 ~vers:1 ~proc:1 (raw "payload!")));
  let reply =
    Rpc.call client ~prog:77 ~vers:1 ~proc:2 (fun e ->
        Xdr.Enc.uint32 e 20;
        Xdr.Enc.uint32 e 22)
  in
  Alcotest.(check int) "add" 42 (Xdr.Dec.uint32 reply);
  Alcotest.(check int) "calls counted" 3 (Stats.get stats "rpc.calls")

let test_rpc_faults () =
  let _, _, link, srv = make_service () in
  let client = Rpc.connect ~link srv in
  Alcotest.check_raises "bad prog" (Rpc.Rpc_error Rpc.Prog_unavail) (fun () ->
      ignore (Rpc.call client ~prog:99 ~vers:1 ~proc:0 (raw "")));
  Alcotest.check_raises "bad vers" (Rpc.Rpc_error Rpc.Prog_unavail) (fun () ->
      ignore (Rpc.call client ~prog:77 ~vers:9 ~proc:0 (raw "")));
  Alcotest.check_raises "bad proc" (Rpc.Rpc_error Rpc.Proc_unavail) (fun () ->
      ignore (Rpc.call client ~prog:77 ~vers:1 ~proc:42 (raw "")));
  (* Handler decode errors surface as Garbage_args. *)
  Alcotest.check_raises "garbage args" (Rpc.Rpc_error Rpc.Garbage_args) (fun () ->
      ignore (Rpc.call client ~prog:77 ~vers:1 ~proc:2 (raw "\001")))

let test_rpc_conn_info () =
  let _, _, link, srv = make_service () in
  let client = Rpc.connect ~link ~peer:"dsa-hex:abcd" ~uid:1042 srv in
  let reply = Rpc.call client ~prog:77 ~vers:1 ~proc:3 (raw "") in
  Alcotest.(check string) "conn info" "peer=dsa-hex:abcd uid=1042" (Xdr.Dec.string reply)

let test_rpc_charges_time () =
  let clock, _, link, srv = make_service () in
  let client = Rpc.connect ~link srv in
  let before = Clock.now clock in
  ignore (Rpc.call client ~prog:77 ~vers:1 ~proc:1 (raw (String.make 8192 'x')));
  let dt = Clock.now clock -. before in
  (* Two 8K+ messages over 12.5 MB/s plus RPC overhead: >1.3 ms. *)
  Alcotest.(check bool) "realistic latency" true (dt > 0.0013 && dt < 0.01)

(* --- retransmission exhaustion ------------------------------------- *)

(* The two call paths — plain code dispatching in-line, and a
   scheduler process going through the server's worker pool — must
   give up alike: [max_attempts] transmissions and the whole jittered
   backoff envelope in virtual time. *)
let test_timeout_alike () =
  let run ~pooled =
    let clock, stats, link, srv = make_service () in
    let sched = Simnet.Sched.create ~clock in
    Simnet.Sched.attach_clock sched;
    if pooled then Rpc.set_pool srv ~sched ~workers:2 ~queue_depth:4;
    let client = Rpc.connect ~link srv in
    let label s = Printf.sprintf "%s (%s)" s (if pooled then "pooled" else "serial") in
    let echo args = Xdr.Dec.rest (Rpc.call client ~prog:77 ~vers:1 ~proc:1 (raw args)) in
    let times_out args =
      match echo args with
      | _ -> false
      | exception Rpc.Rpc_timeout _ -> true
    in
    let scenario () =
      Alcotest.(check string) (label "live call") "hi" (echo "hi");
      (* A path that loses every request, then a successful call. *)
      Rpc.set_channel client { Rpc.plaintext with server_open = (fun _ -> failwith "lost") };
      Alcotest.(check bool) (label "lossy path times out") true (times_out "lost");
      Rpc.set_channel client Rpc.plaintext;
      Alcotest.(check string) (label "path restored") "back" (echo "back");
      (* A crashed server: every transmission vanishes. *)
      Rpc.shutdown srv;
      let count name = Stats.get stats name in
      let retransmits = count "rpc.retransmits" and dropped = count "rpc.dropped_dead" in
      let before = Clock.now clock in
      Alcotest.(check bool) (label "dead server times out") true (times_out "in flight");
      let elapsed = Clock.now clock -. before in
      let r = Rpc.default_retry in
      Alcotest.(check int) (label "retransmits") (r.Rpc.max_attempts - 1)
        (count "rpc.retransmits" - retransmits);
      Alcotest.(check int) (label "transmissions dropped") r.Rpc.max_attempts
        (count "rpc.dropped_dead" - dropped);
      (* 0.8 s doubling over six waits is 0.8 * 63 s; each wait is
         jittered by at most 10%, and the wire adds microseconds. *)
      let nominal = 0.8 *. 63.0 in
      Alcotest.(check bool)
        (label (Printf.sprintf "elapsed %.3f s within the jittered envelope" elapsed))
        true
        (elapsed >= 0.9 *. nominal && elapsed <= (1.1 *. nominal) +. 0.01)
    in
    if pooled then begin
      Simnet.Sched.spawn sched scenario;
      Simnet.Sched.run sched
    end
    else scenario ();
    Alcotest.(check bool) (label "calls took the expected path") pooled (Rpc.queue_peak srv > 0)
  in
  run ~pooled:false;
  run ~pooled:true

(* --- IPsec --------------------------------------------------------- *)

let handshake () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  let drbg = Dcrypto.Drbg.create ~seed:"ipsec-test" in
  let initiator = Dcrypto.Dsa.generate_key drbg in
  let responder = Dcrypto.Dsa.generate_key drbg in
  (clock, stats, link, drbg, initiator, responder)

let test_ike_establish () =
  let clock, _, link, drbg, initiator, responder = handshake () in
  let before = Clock.now clock in
  let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
  Alcotest.(check string) "server sees initiator key"
    (Keynote.Assertion.principal_of_pub initiator.Dcrypto.Dsa.pub)
    server_ep.Ipsec.Ike.peer;
  Alcotest.(check string) "client sees responder key"
    (Keynote.Assertion.principal_of_pub responder.Dcrypto.Dsa.pub)
    client_ep.Ipsec.Ike.peer;
  Alcotest.(check bool) "handshake costs time" true (Clock.now clock -. before > 0.1)

let test_esp_roundtrip () =
  let _, _, link, drbg, initiator, responder = handshake () in
  let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
  let payload = "GETATTR please" in
  let packet = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx payload in
  Alcotest.(check bool) "bigger on the wire" true
    (String.length packet = String.length payload + Ipsec.Esp.overhead);
  Alcotest.(check string) "opens" payload (Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx packet);
  (* Replay is rejected. *)
  (match Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx packet with
  | exception Ipsec.Esp.Esp_error _ -> ()
  | _ -> Alcotest.fail "replay accepted");
  (* Tampered ciphertext is rejected. *)
  let packet2 = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx payload in
  let tampered = Bytes.of_string packet2 in
  Bytes.set tampered 14 (Char.chr (Char.code (Bytes.get tampered 14) lxor 1));
  (match Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx (Bytes.to_string tampered) with
  | exception Ipsec.Esp.Esp_error _ -> ()
  | _ -> Alcotest.fail "tampered packet accepted")

let test_esp_out_of_order () =
  let _, _, link, drbg, initiator, responder = handshake () in
  let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
  let p1 = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx "one" in
  let p2 = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx "two" in
  let p3 = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx "three" in
  (* Delivery order 3,1,2 is fine within the replay window. *)
  Alcotest.(check string) "p3" "three" (Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx p3);
  Alcotest.(check string) "p1" "one" (Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx p1);
  Alcotest.(check string) "p2" "two" (Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx p2)

let test_ike_mitm_detected () =
  let _, _, link, drbg, initiator, responder = handshake () in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* Tamper with the responder's signature message. *)
  (match
     Ipsec.Ike.establish ~link ~drbg ~initiator ~responder
       ~mitm:(fun ~msg s -> if msg = 2 then flip s (String.length s - 6) else s)
       ()
   with
  | exception Ipsec.Ike.Ike_failure _ -> ()
  | _ -> Alcotest.fail "responder tampering undetected");
  (* Tamper with the initiator's authentication. *)
  (match
     Ipsec.Ike.establish ~link ~drbg ~initiator ~responder
       ~mitm:(fun ~msg s -> if msg = 3 then flip s (String.length s - 6) else s)
       ()
   with
  | exception Ipsec.Ike.Ike_failure _ -> ()
  | _ -> Alcotest.fail "initiator tampering undetected")

let test_rpc_over_esp () =
  let clock, stats, link, drbg, initiator, responder = handshake () in
  let srv = Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
  Rpc.register srv ~prog:5 ~vers:1 (fun ~conn ~proc:_ ~args:_ e ->
      Xdr.Enc.string e conn.Rpc.peer;
      Ok ());
  let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
  let channel = Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep in
  let client = Rpc.connect ~link ~channel ~peer:server_ep.Ipsec.Ike.peer srv in
  let reply = Rpc.call client ~prog:5 ~vers:1 ~proc:0 (raw "") in
  Alcotest.(check string) "server handler sees authenticated key"
    (Keynote.Assertion.principal_of_pub initiator.Dcrypto.Dsa.pub)
    (Xdr.Dec.string reply);
  Alcotest.(check bool) "esp packets counted" true (Stats.get stats "esp.packets" >= 2)

(* A retransmitted WRITE whose reply the duplicate-request cache
   already holds is answered from the record, on a pooled server: the
   client loses the first two replies, so the one recorded reply goes
   out three times. Every copy must open to the same bytes (the
   handler ran once), and over ESP each must carry a fresh sequence
   number — sealing the record never changes it. *)
let test_drc_replay_identical () =
  let run ~esp =
    let clock, stats, link, drbg, initiator, responder = handshake () in
    let sched = Simnet.Sched.create ~clock in
    Simnet.Sched.attach_clock sched;
    let srv = Rpc.server ~clock ~cost:Simnet.Cost.default ~stats in
    Rpc.set_pool srv ~sched ~workers:2 ~queue_depth:4;
    let writes = ref 0 in
    Rpc.register srv ~prog:77 ~vers:1 (fun ~conn:_ ~proc:_ ~args e ->
        incr writes;
        Xdr.Enc.uint32 e !writes;
        Xdr.Enc.raw e (Xdr.Dec.rest args);
        Ok ());
    let base, peer =
      if esp then
        let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
        (Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep, server_ep.Ipsec.Ike.peer)
      else (Rpc.plaintext, "")
    in
    let opened = ref [] and seqs = ref [] in
    let client_open pkt =
      if esp then seqs := String.get_int64_be pkt 4 :: !seqs;
      let plain = Xdr.Dec.rest (base.Rpc.client_open pkt) in
      opened := plain :: !opened;
      if List.length !opened <= 2 then failwith "reply lost";
      Xdr.Dec.of_string plain
    in
    let client = Rpc.connect ~link ~channel:{ base with Rpc.client_open } ~peer srv in
    let payload = String.make 8192 'w' in
    let result = ref "" in
    (* discfs-lint: allow races "one process writes it; the test reads it after Sched.run returns" *)
    Simnet.Sched.spawn sched (fun () ->
        result := Xdr.Dec.rest (Rpc.call client ~prog:77 ~vers:1 ~proc:8 (raw payload)));
    Simnet.Sched.run sched;
    let label s = Printf.sprintf "%s (%s)" s (if esp then "esp" else "plaintext") in
    Alcotest.(check int) (label "executed once") 1 !writes;
    Alcotest.(check int) (label "two replays") 2 (Stats.get stats "rpc.drc_hits");
    Alcotest.(check int) (label "three replies opened") 3 (List.length !opened);
    (match !opened with
    | last :: rest ->
      List.iter (fun r -> Alcotest.(check string) (label "replay byte-identical") r last) rest
    | [] -> ());
    Alcotest.(check string) (label "the call returns the recorded result")
      ("\000\000\000\001" ^ payload) !result;
    if esp then
      Alcotest.(check int) (label "each copy sealed under a fresh sequence number") 3
        (List.length (List.sort_uniq Int64.compare !seqs))
  in
  run ~esp:true;
  run ~esp:false

(* A stored READ reply keeps the bytes it was executed with. The
   reader's first reply is lost; while it waits to retransmit, a
   second client overwrites the block. The retransmission (same xid)
   is answered from the DRC with the old data, byte for byte, sealed
   again under a fresh sequence number. *)
let test_drc_read_survives_write () =
  let run ~esp =
    let clock, stats, link, drbg, initiator, responder = handshake () in
    let cost = Simnet.Cost.default in
    let dev =
      Ffs.Blockdev.create ~cache_blocks:64 ~clock ~cost ~stats ~nblocks:256 ~block_size:8192 ()
    in
    let fs = Ffs.Fs.create ~dev ~ninodes:64 in
    let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o644 ~uid:0 in
    let old_data = String.make 8192 'o' and new_data = String.make 8192 'n' in
    Ffs.Fs.write fs ino ~off:0 old_data;
    let fh = { Nfs.Proto.ino; gen = Ffs.Fs.generation fs ino } in
    let srv = Rpc.server ~clock ~cost ~stats in
    Nfs.Server.attach (Nfs.Server.create ~fs ()) srv;
    let sched = Simnet.Sched.create ~clock in
    Simnet.Sched.attach_clock sched;
    Rpc.set_pool srv ~sched ~workers:2 ~queue_depth:8;
    let channel () =
      if esp then
        let client_ep, server_ep = Ipsec.Ike.establish ~link ~drbg ~initiator ~responder () in
        (Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep, server_ep.Ipsec.Ike.peer)
      else (Rpc.plaintext, "")
    in
    let reader_base, reader_peer = channel () in
    let writer_base, writer_peer = channel () in
    let opened = ref [] and seqs = ref [] in
    let client_open pkt =
      if esp then seqs := String.get_int64_be pkt 4 :: !seqs;
      let plain = Xdr.Dec.rest (reader_base.Rpc.client_open pkt) in
      opened := plain :: !opened;
      if List.length !opened = 1 then failwith "reply lost";
      Xdr.Dec.of_string plain
    in
    let reader =
      Nfs.Client.create
        (Rpc.connect ~link ~channel:{ reader_base with Rpc.client_open } ~peer:reader_peer srv)
    in
    let writer = Nfs.Client.create (Rpc.connect ~link ~channel:writer_base ~peer:writer_peer srv) in
    let got = ref "" and read_done = ref 0.0 and write_done = ref 0.0 in
    (* discfs-lint: allow races "each ref has one writing process; the test reads them after Sched.run returns" *)
    Simnet.Sched.spawn sched (fun () ->
        got := snd (Nfs.Client.read reader fh ~off:0 ~count:8192);
        read_done := Clock.now clock);
    (* discfs-lint: allow races "each ref has one writing process; the test reads them after Sched.run returns" *)
    Simnet.Sched.spawn sched (fun () ->
        Simnet.Sched.sleep sched 0.2;
        ignore (Nfs.Client.write writer fh ~off:0 new_data);
        write_done := Clock.now clock);
    Simnet.Sched.run sched;
    let label s = Printf.sprintf "%s (%s)" s (if esp then "esp" else "plaintext") in
    Alcotest.(check bool) (label "the write landed before the retransmission") true
      (!write_done < !read_done);
    Alcotest.(check string) (label "the volume holds the new data") new_data
      (Ffs.Fs.read fs ino ~off:0 ~len:8192);
    Alcotest.(check int) (label "one replay") 1 (Stats.get stats "rpc.drc_hits");
    (match !opened with
    | [ replay; first ] -> Alcotest.(check string) (label "replay byte-identical") first replay
    | l -> Alcotest.failf "%s: %d replies opened" (label "two replies") (List.length l));
    Alcotest.(check string) (label "the reader gets the old data") old_data !got;
    if esp then
      Alcotest.(check int) (label "the replay is sealed under a fresh sequence number") 2
        (List.length (List.sort_uniq Int64.compare !seqs))
  in
  run ~esp:true;
  run ~esp:false

let test_esp_tdes_transform () =
  (* The period-accurate 3DES-HMAC-SHA1 transform interoperates with
     the rest of the stack and costs more virtual time per byte. *)
  let clock, _, link, drbg, initiator, responder = handshake () in
  let client_ep, server_ep =
    Ipsec.Ike.establish ~link ~drbg ~initiator ~responder ~cipher:Ipsec.Sa.Tdes_hmac_sha1 ()
  in
  let payload = String.make 8192 'd' in
  let t0 = Clock.now clock in
  let packet = Ipsec.Esp.seal client_ep.Ipsec.Ike.tx payload in
  let tdes_time = Clock.now clock -. t0 in
  Alcotest.(check string) "opens" payload (Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx packet);
  (* Replay and tampering still rejected. *)
  (match Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx packet with
  | exception Ipsec.Esp.Esp_error _ -> ()
  | _ -> Alcotest.fail "replay accepted");
  let p2 = Bytes.of_string (Ipsec.Esp.seal client_ep.Ipsec.Ike.tx payload) in
  Bytes.set p2 20 (Char.chr (Char.code (Bytes.get p2 20) lxor 1));
  (match Ipsec.Esp.open_ server_ep.Ipsec.Ike.rx (Bytes.to_string p2) with
  | exception Ipsec.Esp.Esp_error _ -> ()
  | _ -> Alcotest.fail "tampered 3des packet accepted");
  (* Compare virtual cost against the fast transform. *)
  let c2, _, link2, drbg2, i2, r2 = handshake () in
  let fast_ep, _ = Ipsec.Ike.establish ~link:link2 ~drbg:drbg2 ~initiator:i2 ~responder:r2 () in
  let t0 = Clock.now c2 in
  ignore (Ipsec.Esp.seal fast_ep.Ipsec.Ike.tx payload);
  let fast_time = Clock.now c2 -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "3des much slower (%.2f ms vs %.3f ms)" (tdes_time *. 1000.)
       (fast_time *. 1000.))
    true
    (tdes_time > 10.0 *. fast_time)

let test_replay_window_unit () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let sa =
    Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7 ~key:(String.make 32 'k') ()
  in
  Alcotest.(check bool) "fresh 5" true (Ipsec.Sa.replay_check sa 5);
  Alcotest.(check bool) "replay 5" false (Ipsec.Sa.replay_check sa 5);
  Alcotest.(check bool) "old 3 ok once" true (Ipsec.Sa.replay_check sa 3);
  Alcotest.(check bool) "replay 3" false (Ipsec.Sa.replay_check sa 3);
  Alcotest.(check bool) "advance 100" true (Ipsec.Sa.replay_check sa 100);
  Alcotest.(check bool) "too old 5" false (Ipsec.Sa.replay_check sa 5);
  Alcotest.(check bool) "recent 90" true (Ipsec.Sa.replay_check sa 90);
  Alcotest.(check bool) "zero invalid" false (Ipsec.Sa.replay_check sa 0)

(* --- xid allocation (regression) -------------------------------------- *)

let test_xid_bands_disjoint () =
  (* The old allocator gave client [c] the xids [c * 1_000_000 + seq]:
     client 1's call 1_500_000 and client 2's call 500_000 shared xid
     2_500_000, so with matching (peer, proc) their DRC entries
     aliased and one client could be answered from the other's cached
     reply. The banded layout keeps clients in disjoint xid ranges
     forever. *)
  let old_xid client seq = (client * 1_000_000) + seq in
  Alcotest.(check int) "old scheme collides across clients"
    (old_xid 1 1_500_000) (old_xid 2 500_000);
  Alcotest.(check bool) "banded scheme does not" true
    (Rpc.make_xid ~client_id:1 ~seq:1_500_000 <> Rpc.make_xid ~client_id:2 ~seq:500_000);
  (* A client's sequence wraps inside its own 20-bit band instead of
     marching into the neighbour's range. *)
  Alcotest.(check int) "seq wraps in-band"
    (Rpc.make_xid ~client_id:3 ~seq:0)
    (Rpc.make_xid ~client_id:3 ~seq:(1 lsl 20));
  Alcotest.(check bool) "xid fits uint32" true
    (Rpc.make_xid ~client_id:4095 ~seq:((1 lsl 20) - 1) < 1 lsl 32)

let prop_xid_bands_disjoint =
  QCheck.Test.make ~name:"xids from distinct clients never collide" ~count:500
    (QCheck.make
       ~print:(fun (c1, c2, s1, s2) -> Printf.sprintf "c%d/%d c%d/%d" c1 s1 c2 s2)
       QCheck.Gen.(
         quad (int_range 0 4095) (int_range 0 4095) (int_range 0 10_000_000)
           (int_range 0 10_000_000)))
    (fun (c1, c2, s1, s2) ->
      let x1 = Rpc.make_xid ~client_id:c1 ~seq:s1
      and x2 = Rpc.make_xid ~client_id:c2 ~seq:s2 in
      x1 >= 0 && x1 < 1 lsl 32 && (c1 = c2 || x1 <> x2))

let suite =
  [
    Alcotest.test_case "xdr integers" `Quick test_xdr_ints;
    Alcotest.test_case "xdr opaque padding" `Quick test_xdr_opaque_padding;
    Alcotest.test_case "xdr truncation" `Quick test_xdr_truncation;
    QCheck_alcotest.to_alcotest prop_xdr_roundtrip;
    Alcotest.test_case "rpc echo service" `Quick test_rpc_echo;
    Alcotest.test_case "rpc faults" `Quick test_rpc_faults;
    Alcotest.test_case "rpc connection info" `Quick test_rpc_conn_info;
    Alcotest.test_case "rpc charges virtual time" `Quick test_rpc_charges_time;
    Alcotest.test_case "serial and pooled calls time out alike" `Quick test_timeout_alike;
    Alcotest.test_case "ike establishes authenticated SAs" `Quick test_ike_establish;
    Alcotest.test_case "esp seal/open/replay/tamper" `Quick test_esp_roundtrip;
    Alcotest.test_case "esp out-of-order within window" `Quick test_esp_out_of_order;
    Alcotest.test_case "ike detects tampering" `Quick test_ike_mitm_detected;
    Alcotest.test_case "rpc over esp channel" `Quick test_rpc_over_esp;
    Alcotest.test_case "drc replays are byte-identical" `Quick test_drc_replay_identical;
    Alcotest.test_case "drc replay of a read survives a write" `Quick
      test_drc_read_survives_write;
    Alcotest.test_case "esp 3des transform" `Quick test_esp_tdes_transform;
    Alcotest.test_case "replay window" `Quick test_replay_window_unit;
    Alcotest.test_case "xid bands are disjoint" `Quick test_xid_bands_disjoint;
    QCheck_alcotest.to_alcotest prop_xid_bands_disjoint;
  ]
