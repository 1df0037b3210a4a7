(* Robustness / fuzz suite: attacker-controlled bytes reach the
   assertion parser (credential submission), the RPC dispatcher and
   ESP open_ (the wire), and the image loader. None of them may do
   anything other than return/raise their documented errors. *)

let gen_bytes n = QCheck.Gen.(string_size (int_range 0 n))

(* Byte strings biased toward interesting structure: mutations of a
   valid credential / packet rather than pure noise. *)
let mutate base =
  QCheck.Gen.(
    map2
      (fun pos byte ->
        if String.length base = 0 then ""
        else begin
          let b = Bytes.of_string base in
          Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
          Bytes.to_string b
        end)
      (int_bound 10_000) (int_bound 255))

let valid_credential =
  lazy
    (let drbg = Dcrypto.Drbg.create ~seed:"fuzz-cred" in
     let key = Dcrypto.Dsa.generate_key drbg in
     let cred =
       Keynote.Assertion.issue ~key ~drbg ~licensees:"\"dsa-hex:aa\""
         ~conditions:"app_domain == \"DisCFS\" -> \"R\";" ()
     in
     Keynote.Assertion.to_text cred)

let prop_assertion_parser_total =
  QCheck.Test.make ~name:"assertion parser: raise Parse_error or succeed, never crash"
    ~count:500 (QCheck.make (gen_bytes 400)) (fun junk ->
      match Keynote.Assertion.parse junk with
      | _ -> true
      | exception Keynote.Assertion.Parse_error _ -> true)

let prop_assertion_mutations_never_verify =
  QCheck.Test.make ~name:"mutated credentials never verify" ~count:200
    (QCheck.make (mutate (Lazy.force valid_credential)))
    (fun text ->
      if text = Lazy.force valid_credential then true
      else begin
        match Keynote.Assertion.parse text with
        | exception Keynote.Assertion.Parse_error _ -> true
        | a ->
          (* A one-byte mutation may hit the comment (not covered by
             the signature only if after Signature field — our
             Comment precedes it, so any content change must kill the
             signature); mutations inside the signature itself also
             fail. Either way it must not verify as the same text. *)
          (not (Keynote.Assertion.verify a))
          || String.length text = String.length (Lazy.force valid_credential)
      end)

let prop_conditions_parser_total =
  QCheck.Test.make ~name:"conditions parser: total" ~count:500
    (QCheck.make (gen_bytes 120)) (fun junk ->
      match Keynote.Parser.conditions junk with
      | _ -> true
      | exception (Keynote.Parser.Parse_error _ | Keynote.Lexer.Lex_error _) -> true)

let prop_rex_total =
  QCheck.Test.make ~name:"regex compiler: total" ~count:500 (QCheck.make (gen_bytes 60))
    (fun pattern ->
      match Rex.compile pattern with
      | _ -> true
      | exception Rex.Syntax_error _ -> true)

let prop_xdr_decoder_total =
  QCheck.Test.make ~name:"xdr decoder: total" ~count:500 (QCheck.make (gen_bytes 200))
    (fun junk ->
      let d = Xdr.Dec.of_string junk in
      match
        let _ = Xdr.Dec.uint32 d in
        let _ = Xdr.Dec.string d in
        let _ = Xdr.Dec.bool d in
        ()
      with
      | () -> true
      | exception Xdr.Decode_error _ -> true)

let prop_nfs_server_survives_garbage_args =
  (* Random bytes as the body of every NFS procedure: the server must
     answer (status or Garbage_args), not die, and stay usable. *)
  QCheck.Test.make ~name:"nfs server survives garbage args" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_bound 17) (gen_bytes 120)))
    (fun (proc, junk) ->
      let d = Cfs.Cfs_ne.deploy () in
      let client, root = Cfs.Cfs_ne.connect d in
      let rpc = Oncrpc.Rpc.connect ~link:d.Cfs.Cfs_ne.link d.Cfs.Cfs_ne.rpc in
      (match
         Oncrpc.Rpc.call rpc ~prog:Nfs.Proto.nfs_prog ~vers:Nfs.Proto.nfs_vers ~proc (fun e ->
             Xdr.Enc.raw e junk)
       with
      | _ -> ()
      | exception Oncrpc.Rpc.Rpc_error _ -> ()
      | exception Xdr.Decode_error _ -> ());
      (* The server still works afterwards. *)
      let fh, _ = Nfs.Client.create_file client root "still-alive" Nfs.Proto.sattr_none in
      ignore (Nfs.Client.write client fh ~off:0 "yes");
      snd (Nfs.Client.read client fh ~off:0 ~count:3) = "yes")

let prop_esp_open_total =
  QCheck.Test.make ~name:"esp open: rejects garbage, never crashes" ~count:300
    (QCheck.make (gen_bytes 300)) (fun junk ->
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let sa =
        Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:1
          ~key:(String.make 32 'k') ()
      in
      match Ipsec.Esp.open_ sa junk with
      | _ -> false (* forging a valid packet from noise should not happen *)
      | exception Ipsec.Esp.Esp_error _ -> true)

let prop_esp_mutations_typed_errors =
  (* Start from a genuinely valid packet, then flip a byte or cut it
     short. The receiver must raise Esp_error — never Invalid_argument
     or an out-of-bounds crash. (The no-op mutation that rewrites the
     same byte is the only case allowed to open.) *)
  QCheck.Test.make ~name:"esp open: mutated/truncated valid packets raise Esp_error"
    ~count:300
    (QCheck.make QCheck.Gen.(triple (int_bound 10_000) (int_bound 255) (int_bound 10_000)))
    (fun (pos, byte, cut) ->
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let mk () =
        Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7
          ~key:(String.make 32 'f') ()
      in
      let tx = mk () and rx = mk () in
      let packet = Ipsec.Esp.seal tx "the quick brown fox, sealed" in
      let mutated =
        let b = Bytes.of_string packet in
        Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        Bytes.to_string b
      in
      let truncated = String.sub packet 0 (cut mod String.length packet) in
      let total p =
        match Ipsec.Esp.open_ rx p with
        | _ -> p = packet
        | exception Ipsec.Esp.Esp_error _ -> true
      in
      total mutated && total truncated)

let prop_esp_multiblock_forgeries =
  (* Multi-block payloads (0-9,000 bytes: full 64-byte ChaCha20 blocks,
     8-byte lanes and a ragged tail). One byte is flipped in a chosen
     region — the header, a full keystream block, the partial final
     block, or the tag — and the forgery must raise Esp_error. It must
     also leave the replay window alone: the genuine packet with the
     same sequence number still opens, to the original payload. *)
  let gen =
    QCheck.Gen.(
      let* len = int_bound 9000 in
      let* payload = string_size (return len) in
      let* region = int_bound 3 in
      let* at = int_bound 100_000 in
      let* flip = int_range 1 255 in
      return (payload, region, at, flip))
  in
  QCheck.Test.make ~name:"esp open: multi-block forgeries raise Esp_error, window untouched"
    ~count:200 (QCheck.make gen)
    (fun (payload, region, at, flip) ->
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let mk () =
        Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7
          ~key:(String.make 32 'f') ()
      in
      let tx = mk () and rx = mk () in
      let packet = Ipsec.Esp.seal tx payload in
      let len = String.length payload in
      let full = len / 64 * 64 in
      (* [lo, lo + span) is the region; an empty one falls back to the
         header. *)
      let lo, span =
        match region with
        | 1 when full > 0 -> (12, full)
        | 2 when len > full -> (12 + full, len - full)
        | 3 -> (12 + len, 16)
        | _ -> (0, 12)
      in
      let forged = Bytes.of_string packet in
      let pos = lo + (at mod span) in
      Bytes.set forged pos (Char.chr (Char.code packet.[pos] lxor flip));
      let rejected =
        match Ipsec.Esp.open_ rx (Bytes.to_string forged) with
        | _ -> false
        | exception Ipsec.Esp.Esp_error _ -> true
      in
      rejected && String.equal (Ipsec.Esp.open_ rx packet) payload)

let prop_esp_open_in_place =
  (* The in-place open decides on the packet as it arrived. One it
     rejects — cut short, under another SPI, with a byte flipped, or
     replayed — raises Esp_error and is left byte-for-byte unchanged;
     one it accepts reads, through the returned view, exactly what the
     copying open_ makes of a copy of it. *)
  let gen =
    QCheck.Gen.(
      let* len = int_bound 3000 in
      let* payload = string_size (return len) in
      let* kind = int_bound 4 in
      let* at = int_bound 100_000 in
      let* flip = int_range 1 255 in
      return (payload, kind, at, flip))
  in
  QCheck.Test.make
    ~name:"esp open in place: a rejected packet is left intact, an accepted one matches open_"
    ~count:200 (QCheck.make gen)
    (fun (payload, kind, at, flip) ->
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let mk () =
        Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7
          ~key:(String.make 32 'f') ()
      in
      let tx = mk () and rx = mk () and rx_copy = mk () in
      let packet = Ipsec.Esp.seal tx payload in
      let wire =
        let b = Bytes.of_string packet in
        match kind with
        | 1 -> String.sub packet 0 (at mod Ipsec.Esp.overhead) (* short *)
        | 2 ->
          Bytes.set_int32_be b 0 8l (* another SPI *);
          Bytes.to_string b
        | 3 ->
          let pos = at mod Bytes.length b in
          Bytes.set b pos (Char.chr (Char.code packet.[pos] lxor flip));
          Bytes.to_string b
        | _ -> packet (* 0: genuine; 4: replayed *)
      in
      if kind = 4 then ignore (Ipsec.Esp.open_ rx packet);
      let owned = Bytes.of_string wire in
      match Ipsec.Esp.open_in_place rx owned with
      | view -> kind = 0 && String.equal (Xdr.Dec.rest view) (Ipsec.Esp.open_ rx_copy wire)
      | exception Ipsec.Esp.Esp_error _ -> kind <> 0 && String.equal (Bytes.to_string owned) wire)

let prop_xdr_truncation_typed =
  (* Any strict prefix of a valid encoding must fail with Decode_error
     exactly — the decoders never read past the buffer. *)
  QCheck.Test.make ~name:"xdr decoders: truncation raises Decode_error" ~count:300
    (QCheck.make QCheck.Gen.(triple (int_bound 0xffff) small_string (int_bound 10_000)))
    (fun (n, s, cut) ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.uint32 e n;
      Xdr.Enc.string e s;
      Xdr.Enc.bool e true;
      let full = Xdr.Enc.to_string e in
      let d = Xdr.Dec.of_string (String.sub full 0 (cut mod String.length full)) in
      match
        let a = Xdr.Dec.uint32 d in
        let s' = Xdr.Dec.string d in
        let b' = Xdr.Dec.bool d in
        (a, s', b')
      with
      | _ -> false (* the prefix is strictly short: something must be missing *)
      | exception Xdr.Decode_error _ -> true)

let prop_image_loader_total =
  QCheck.Test.make ~name:"fs image loader: total" ~count:100 (QCheck.make (gen_bytes 400))
    (fun junk ->
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let dev =
        Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:64
          ~block_size:8192 ()
      in
      match Ffs.Fs.load ~dev junk with
      | _ -> true
      | exception (Ffs.Fs.Bad_image _ | Invalid_argument _) -> true)

(* --- the cluster's decoders and control procedures ---------------------- *)

(* One byte overwritten, or the encoding cut short: the two shapes of
   damage every decoder must turn into its typed error. *)
let damage =
  QCheck.Gen.(quad bool (int_bound 10_000) (int_bound 255) (int_bound 10_000))

let damaged base (cut, pos, byte, len) =
  if cut then String.sub base 0 (len mod (String.length base + 1))
  else begin
    let b = Bytes.of_string base in
    Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
    Bytes.to_string b
  end

let encoded enc x =
  let e = Xdr.Enc.create () in
  enc e x;
  Xdr.Enc.to_string e

(* Two frontends, shard 0 (owned by node 0) replicated on node 1: a
   well-formed LEASE and INVALIDATE from node 1 both succeed, so the
   mutations start from the granting path, not only the refusals. *)
let fuzz_cluster =
  lazy
    (let c = Discfs.Cluster.make ~servers:2 ~seed:"fuzz-cluster" () in
     (match Discfs.Cluster.add_replica c ~shard:0 ~server:1 with
     | Ok () -> ()
     | Error e -> failwith e);
     c)

let prop_shard_map_decode_typed =
  let base =
    lazy
      (encoded Discfs.Shard_map.encode
         (Discfs.Shard_map.add_replica
            (Discfs.Shard_map.make ~nservers:3 ~nshards:8)
            ~shard:2 ~server:0))
  in
  QCheck.Test.make ~name:"shard map decode: mutated/truncated raise Decode_error" ~count:500
    (QCheck.make damage) (fun dmg ->
      match Discfs.Shard_map.decode (Xdr.Dec.of_string (damaged (Lazy.force base) dmg)) with
      | _ -> true
      | exception Xdr.Decode_error _ -> true)

let prop_redirect_decode_typed =
  let base =
    lazy
      (let c = Lazy.force fuzz_cluster in
       encoded Nfs.Proto.redirect_encode
         {
           Nfs.Proto.r_target = 1;
           r_version = 2;
           r_principal = Discfs.Cluster.server_principal c 1;
           r_sig = String.make 48 's';
         })
  in
  QCheck.Test.make ~name:"redirect decode: mutated/truncated raise Decode_error" ~count:500
    (QCheck.make damage) (fun dmg ->
      match Nfs.Proto.redirect_decode (Xdr.Dec.of_string (damaged (Lazy.force base) dmg)) with
      | _ -> true
      | exception Xdr.Decode_error _ -> true)

let prop_cluster_procs_answer =
  (* GETMAP, LEASE and INVALIDATE with damaged arguments, fed to node
     0 exactly as its link would, from node 1's principal. Every call
     gets a reply that parses: a result, a refusal or Garbage_args. *)
  let xid = ref 0 in
  let args proc =
    let e = Xdr.Enc.create () in
    if proc = Discfs.Cluster.clusterproc_getmap then Xdr.Enc.uint32 e 0
    else if proc = Discfs.Cluster.clusterproc_lease then begin
      Xdr.Enc.uint32 e 0;
      Xdr.Enc.uint32 e 1
    end
    else begin
      Xdr.Enc.uint32 e 1;
      Xdr.Enc.uint32 e 1
    end;
    Xdr.Enc.to_string e
  in
  let procs =
    Discfs.Cluster.[| clusterproc_getmap; clusterproc_lease; clusterproc_invalidate |]
  in
  QCheck.Test.make ~name:"cluster procs: damaged args get a parseable reply" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_bound 2) damage))
    (fun (which, dmg) ->
      let c = Lazy.force fuzz_cluster in
      let proc = procs.(which) in
      incr xid;
      let call =
        Oncrpc.Rpc.encode_call ~xid:!xid ~prog:Discfs.Cluster.cluster_prog
          ~vers:Discfs.Cluster.cluster_vers ~proc ~uid:0
          (damaged (args proc) dmg)
      in
      let conn = { Oncrpc.Rpc.peer = Discfs.Cluster.server_principal c 1; uid = 0 } in
      match Wire_oracle.dispatch (Discfs.Cluster.node_rpc c 0) ~conn call with
      | None -> false
      | Some reply ->
        let rxid, _ = Wire_oracle.decode_reply reply in
        rxid = !xid)

(* --- saved server state ---------------------------------------------------- *)

module Server = Discfs.Server

(* A saved state with every section filled: admitted credentials (one
   the server issued on CREATE, one the administrator issued), a
   revoked key, a revoked credential's fingerprint and audit entries. *)
let saved_state =
  lazy
    (let module CC = Discfs.Cluster_client in
     let d = Discfs.Cluster.make ~seed:"fuzz-state" () in
     let admin = CC.attach d ~identity:(Discfs.Cluster.admin_identity d) ~uid:0 () in
     let fh, _, _ = CC.create admin ~dir:(CC.root admin) "f" in
     let bob = CC.attach d ~identity:(Discfs.Cluster.new_identity d) ~uid:100 () in
     let issue value =
       Discfs.Cluster.admin_issue d
         ~licensees:(Printf.sprintf "\"%s\"" (CC.principal bob))
         ~conditions:
           (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";"
              fh.Nfs.Proto.ino value)
         ()
     in
     let ok = function Ok _ -> () | Error e -> failwith e in
     let kept = issue "R" and dropped = issue "RW" in
     ok (CC.submit_credential bob kept);
     ok (CC.submit_credential bob dropped);
     ok (CC.revoke_credential admin ~fingerprint:(Keynote.Assertion.fingerprint dropped));
     ok
       (CC.revoke_key admin
          ~principal:
            (Keynote.Assertion.principal_of_pub (Discfs.Cluster.new_identity d).Dcrypto.Dsa.pub));
     ignore (CC.read bob fh ~off:0 ~count:1);
     Server.save_state (Discfs.Cluster.node_server d 0))

let state_keys =
  lazy
    (let drbg = Dcrypto.Drbg.create ~seed:"fuzz-state-target" in
     let admin = Dcrypto.Dsa.generate_key drbg in
     (admin, Dcrypto.Dsa.generate_key drbg))

(* A freshly created frontend with its own empty store. *)
let fresh_server () =
  let admin, key = Lazy.force state_keys in
  let clock = Simnet.Clock.create () in
  let stats = Simnet.Stats.create () in
  let dev =
    Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.default ~stats ~nblocks:64 ~block_size:8192 ()
  in
  let store =
    Server.create_store ~admin:admin.Dcrypto.Dsa.pub ~frontends:[ key.Dcrypto.Dsa.pub ]
      ~trace:Trace.null
  in
  Server.create ~fs:(Ffs.Fs.create ~dev ~ninodes:16) ~store ~server_key:key
    ~drbg:(Dcrypto.Drbg.create ~seed:"fuzz-state-server") ()

(* A damaged state either loads or returns Error with nothing applied
   (PROTOCOL.md §10); it never raises. Whatever loads saves to bytes
   that load and save back unchanged, and the undamaged state is its
   own save. *)
let prop_state_load_all_or_nothing =
  QCheck.Test.make ~name:"saved state: damage loads or changes nothing; save is stable"
    ~count:60 (QCheck.make damage) (fun dmg ->
      let base = Lazy.force saved_state in
      let t = fresh_server () in
      let empty = Server.save_state t in
      let reload s =
        let t' = fresh_server () in
        match Server.load_state t' s with
        | Ok _ -> Server.save_state t'
        | Error e -> failwith ("a saved state does not load: " ^ e)
      in
      String.equal (reload base) base
      &&
      match Server.load_state t (damaged base dmg) with
      | Error _ ->
        String.equal (Server.save_state t) empty && Keynote.Session.size (Server.session t) = 0
      | Ok _ ->
        let saved = Server.save_state t in
        String.equal (reload saved) saved)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_assertion_parser_total;
    QCheck_alcotest.to_alcotest prop_assertion_mutations_never_verify;
    QCheck_alcotest.to_alcotest prop_conditions_parser_total;
    QCheck_alcotest.to_alcotest prop_rex_total;
    QCheck_alcotest.to_alcotest prop_xdr_decoder_total;
    QCheck_alcotest.to_alcotest prop_nfs_server_survives_garbage_args;
    QCheck_alcotest.to_alcotest prop_esp_open_total;
    QCheck_alcotest.to_alcotest prop_esp_mutations_typed_errors;
    QCheck_alcotest.to_alcotest prop_esp_multiblock_forgeries;
    QCheck_alcotest.to_alcotest prop_xdr_truncation_typed;
    QCheck_alcotest.to_alcotest prop_image_loader_total;
    QCheck_alcotest.to_alcotest prop_shard_map_decode_typed;
    QCheck_alcotest.to_alcotest prop_redirect_decode_typed;
    QCheck_alcotest.to_alcotest prop_cluster_procs_answer;
    QCheck_alcotest.to_alcotest prop_state_load_all_or_nothing;
    QCheck_alcotest.to_alcotest prop_esp_open_in_place;
  ]
