(* Layer probes for the traced run: each is the median wall time of
   [samples] timings of one call into a layer's public functions on
   fixed inputs (the same on every seed). Calls that take microseconds
   are timed in batches. Results are in microseconds per call. *)

module Dsa = Dcrypto.Dsa
module Assertion = Keynote.Assertion

let samples = 15

let probe ?(batch = 1) f =
  let one () =
    let (), dt =
      Meter.time (fun () ->
          for _ = 1 to batch do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    dt /. float_of_int batch
  in
  ignore (one ());
  Meter.median (List.init samples (fun _ -> one ())) *. 1e6

let kb8 = String.init 8192 (fun i -> Char.chr (i land 255))

let crypto () =
  let drbg = Dcrypto.Drbg.create ~seed:"perfbench-probe" in
  let params = Dsa.default_params () in
  let key = Dsa.generate_key drbg in
  let exponent = Dcrypto.Drbg.nat_below drbg params.Dsa.q in
  let msg = "perfbench probe message" in
  let signature = Dsa.sign ~key drbg msg in
  [ ("bignum.pow_us", probe (fun () -> Bignum.Modarith.pow ~m:params.Dsa.p params.Dsa.g exponent));
    ("dcrypto.dsa_keygen_us", probe (fun () -> Dsa.generate_key drbg));
    ("dcrypto.dsa_sign_us", probe (fun () -> Dsa.sign ~key drbg msg));
    ( "dcrypto.dsa_verify_us",
      probe (fun () ->
          if not (Dsa.verify ~key:key.Dsa.pub msg signature) then Report.fail "probe: DSA verify") );
    ("dcrypto.dh_gen_us", probe (fun () -> Dcrypto.Dh.gen drbg));
    ("dcrypto.sha1_8k_us", probe ~batch:32 (fun () -> Dcrypto.Sha1.digest kb8));
    ( "dcrypto.chacha20_8k_us",
      probe ~batch:32 (fun () ->
          Dcrypto.Chacha20.crypt ~key:(String.make 32 'k') ~nonce:(String.make 12 'n') kb8) );
    ( "dcrypto.poly1305_8k_us",
      probe ~batch:32 (fun () -> Dcrypto.Poly1305.mac ~key:(String.make 32 'p') kb8) ) ]

let ipsec () =
  let clock = Simnet.Clock.create () and stats = Simnet.Stats.create () in
  let cost = Simnet.Cost.default in
  let link = Simnet.Link.create ~clock ~cost ~stats in
  let drbg = Dcrypto.Drbg.create ~seed:"perfbench-probe-ike" in
  let initiator = Dsa.generate_key drbg and responder = Dsa.generate_key drbg in
  let sa spi = Ipsec.Sa.create ~clock ~cost ~stats ~spi ~key:(String.make 32 's') () in
  let seal_tx = sa 1 and open_tx = sa 2 and open_rx = sa 2 in
  let batch = 32 in
  let seal sa =
    let a = Ipsec.Esp.arena () in
    Xdr.Enc.raw (Ipsec.Esp.arena_enc a) kb8;
    Ipsec.Esp.seal_arena sa a
  in
  (* Open needs fresh sequence numbers: seal every packet it will see
     up front, in order. *)
  let packets = Queue.create () in
  for _ = 1 to (samples + 1) * batch do
    Queue.push (seal open_tx) packets
  done;
  [ ( "ipsec.ike_establish_us",
      probe (fun () -> Ipsec.Ike.establish ~link ~drbg ~initiator ~responder ()) );
    ("ipsec.esp_seal_8k_us", probe ~batch (fun () -> seal seal_tx));
    ("ipsec.esp_open_8k_us", probe ~batch (fun () -> Ipsec.Esp.open_ open_rx (Queue.pop packets)));
    ( "oncrpc.encode_call_us",
      probe ~batch (fun () ->
          Oncrpc.Rpc.encode_call ~xid:7 ~prog:100003 ~vers:2 ~proc:8 ~uid:1000 kb8) ) ]

(* KeyNote and the DisCFS policy memo on the walk workload's chain:
   administrator -> group key -> reader, read access on any handle. *)
let policy () =
  let c = Discfs.Cluster.make ~servers:1 ~seed:"perfbench-probe-policy" () in
  let drbg = Dcrypto.Drbg.create ~seed:"perfbench-probe-policy" in
  let group = Dsa.generate_key drbg in
  let read_all = "app_domain == \"DisCFS\" -> \"R\";" in
  let to_group = Discfs.Cluster.admin_issue c ~licensees:(Fixture.licensee group) ~conditions:read_all () in
  let issue reader =
    [ to_group; Assertion.issue ~key:group ~drbg ~licensees:(Fixture.licensee reader) ~conditions:read_all () ]
  in
  let cc, creds = Fixture.onboard c ~drbg ~uid:2000 ~home:0 ~issue in
  let reader = Discfs.Cluster_client.principal cc in
  let text = Assertion.to_text (List.nth creds 1) in
  let fs = Discfs.Cluster.fs c in
  let inos =
    Array.init 256 (fun i -> Ffs.Fs.create_file fs (Ffs.Fs.root fs) (Printf.sprintf "q%03d" i) ~perms:0o644 ~uid:0)
  in
  let server = Discfs.Cluster.node_server c 0 in
  let policy =
    [ Assertion.policy
        ~licensees:(Printf.sprintf "\"%s\"" (Discfs.Cluster.admin_principal c))
        ~conditions:"app_domain == \"DisCFS\";" () ]
  in
  let query =
    { Keynote.Compliance.requesters = [ reader ];
      attributes = [ ("app_domain", "DisCFS"); ("HANDLE", string_of_int inos.(0)) ];
      values = Discfs.Server.values }
  in
  let cold () =
    let r = Keynote.Compliance.check ~assume_verified:true ~policy ~credentials:creds query in
    if r.Keynote.Compliance.value <> "R" then Report.fail "probe: chain grants %s" r.value
  in
  let next = ref 0 in
  let level ino =
    if Discfs.Server.query_level server ~peer:reader ~ino < 4 then Report.fail "probe: memo denies"
  in
  [ ("keynote.parse_us", probe ~batch:16 (fun () -> Assertion.parse text));
    ("keynote.check_cold_us", probe ~batch:16 cold);
    ("discfs.policy_hit_us", probe ~batch:64 (fun () -> level inos.(0)));
    ( "discfs.policy_miss_us",
      (* cycling through twice the memo's capacity misses every time *)
      probe ~batch:64 (fun () ->
          next := (!next + 1) mod Array.length inos;
          level inos.(!next)) ) ]

let storage () =
  let clock = Simnet.Clock.create () and stats = Simnet.Stats.create () in
  let dev =
    Ffs.Blockdev.create ~cache_blocks:64 ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:1024
      ~block_size:8192 ()
  in
  let fs = Ffs.Fs.create ~dev ~ninodes:64 in
  let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "probe" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs ino ~off:0 (String.concat "" (List.init 8 (fun _ -> kb8)));
  let blk = ref 0 in
  let at () =
    blk := (!blk + 1) mod 8;
    !blk * 8192
  in
  let sched_event () =
    let s = Simnet.Sched.create ~clock:(Simnet.Clock.create ()) in
    for _ = 1 to 64 do
      Simnet.Sched.spawn s (fun () ->
          for _ = 1 to 32 do
            Simnet.Sched.sleep s 0.001
          done)
    done;
    let (), dt = Meter.time (fun () -> Simnet.Sched.run s) in
    dt /. float_of_int (Simnet.Sched.events_run s)
  in
  ignore (sched_event ());
  [ ("ffs.read_8k_us", probe ~batch:32 (fun () -> Ffs.Fs.read fs ino ~off:(at ()) ~len:8192));
    ("ffs.write_8k_us", probe ~batch:32 (fun () -> Ffs.Fs.write fs ino ~off:(at ()) kb8));
    ("simnet.sched_event_us", Meter.median (List.init samples (fun _ -> sched_event ())) *. 1e6) ]

let all () = crypto () @ ipsec () @ policy () @ storage ()
