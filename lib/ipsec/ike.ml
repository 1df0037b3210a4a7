module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Link = Simnet.Link
module Dsa = Dcrypto.Dsa
module Dh = Dcrypto.Dh
module Drbg = Dcrypto.Drbg
module Nat = Bignum.Nat

type endpoint = { tx : Sa.t; rx : Sa.t; peer : string }

exception Ike_failure of string

let principal pub = "dsa-hex:" ^ Dcrypto.Hexcodec.encode (Dsa.pub_encode pub)

(* Handshake message encodings (length-prefixed fields via Xdr). *)

let encode_share share =
  (* discfs-lint: allow hotpath-alloc "IKE handshake: once per attach, not per RPC" *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e (Nat.to_bytes_be share);
  Xdr.Enc.to_string e

let encode_auth ~share ~signature ~pub =
  (* discfs-lint: allow hotpath-alloc "IKE handshake: once per attach, not per RPC" *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e (Nat.to_bytes_be share);
  Xdr.Enc.opaque e (Dsa.sig_encode signature);
  Xdr.Enc.opaque e (Dsa.pub_encode pub);
  Xdr.Enc.to_string e

let decode_share msg =
  let d = Xdr.Dec.of_string msg in
  let share = Nat.of_bytes_be (Xdr.Dec.opaque d) in
  Xdr.Dec.expect_end d;
  share

let decode_auth msg =
  let d = Xdr.Dec.of_string msg in
  let share = Nat.of_bytes_be (Xdr.Dec.opaque d) in
  let signature = Dsa.sig_decode (Xdr.Dec.opaque d) in
  let pub = Dsa.pub_decode (Xdr.Dec.opaque d) in
  Xdr.Dec.expect_end d;
  (share, signature, pub)

let establish ~link ~drbg ~initiator ~responder ?(mitm = fun ~msg:_ s -> s)
    ?(cipher = Sa.Chacha20_poly1305) ?lifetime () =
  let clock = Link.clock link in
  let cost = Link.cost link in
  let stats = Link.stats link in
  let trace = Link.trace link in
  Trace.span trace "ike.handshake" @@ fun () ->
  (* One fixed CPU charge stands in for the exponentiations and
     signatures of a 2001-era IKE main mode. *)
  Clock.advance clock cost.Cost.ike_handshake;
  Simnet.Stats.incr stats "ike.handshakes";
  let send ~msg m =
    Link.transmit link (String.length m);
    mitm ~msg m
  in
  (* msg1: initiator's DH share. *)
  let i_secret, i_share = Dh.gen drbg in
  let msg1 = send ~msg:1 (encode_share i_share) in
  let i_share_seen = try decode_share msg1 with Xdr.Decode_error m -> raise (Ike_failure m) in
  (* msg2: responder's share + signature over the transcript + its key. *)
  let r_secret, r_share = Dh.gen drbg in
  let transcript_r = encode_share i_share_seen ^ encode_share r_share in
  let r_sig = Dsa.sign ~key:responder drbg transcript_r in
  let msg2 = send ~msg:2 (encode_auth ~share:r_share ~signature:r_sig ~pub:responder.Dsa.pub) in
  let r_share_seen, r_sig_seen, r_pub_seen =
    try decode_auth msg2 with
    | Xdr.Decode_error m | Invalid_argument m -> raise (Ike_failure m)
  in
  let transcript_i = encode_share i_share ^ encode_share r_share_seen in
  if not (Dsa.verify ~key:r_pub_seen transcript_i r_sig_seen) then
    raise (Ike_failure "responder authentication failed");
  (* msg3: initiator's signature over the same transcript + its key. *)
  let i_sig = Dsa.sign ~key:initiator drbg transcript_i in
  let msg3 = send ~msg:3 (encode_auth ~share:i_share ~signature:i_sig ~pub:initiator.Dsa.pub) in
  let i_share_auth, i_sig_seen, i_pub_seen =
    try decode_auth msg3 with
    | Xdr.Decode_error m | Invalid_argument m -> raise (Ike_failure m)
  in
  if not (Nat.equal i_share_auth i_share_seen)
     || not (Dsa.verify ~key:i_pub_seen (encode_share i_share_seen ^ encode_share r_share) i_sig_seen)
  then raise (Ike_failure "initiator authentication failed");
  (* Key derivation: both sides agree on the DH secret; directional
     traffic keys and SPIs come from it. *)
  let z_i = Dh.shared i_secret r_share_seen in
  let z_r = Dh.shared r_secret i_share_seen in
  let keys z =
    ( Dcrypto.Hmac.sha256 ~key:z "initiator->responder",
      Dcrypto.Hmac.sha256 ~key:z "responder->initiator",
      1 + (Char.code z.[0] lsl 8) lor Char.code z.[1],
      2 + (Char.code z.[2] lsl 8) lor Char.code z.[3] )
  in
  let k_i2r, k_r2i, spi_i2r, spi_r2i = keys z_i in
  let k_i2r', k_r2i', _, _ = keys z_r in
  if k_i2r <> k_i2r' || k_r2i <> k_r2i' then raise (Ike_failure "key agreement failed");
  let sa key spi = Sa.create ~clock ~cost ~stats ~spi ~key ~cipher ?lifetime ~trace () in
  let initiator_ep =
    { tx = sa k_i2r spi_i2r; rx = sa k_r2i spi_r2i; peer = principal r_pub_seen }
  in
  let responder_ep =
    { tx = sa k_r2i spi_r2i; rx = sa k_i2r spi_i2r; peer = principal i_pub_seen }
  in
  (initiator_ep, responder_ep)

(* Soft-lifetime re-keying: an abbreviated two-message exchange in
   the role of IKE quick mode. Fresh traffic keys are derived by
   PRF from the existing SA keys and a nonce — no public-key
   operations, so it is ~an order of magnitude cheaper than the main
   mode. Both directions get new keys, new SPIs and reset sequence
   counters / replay windows. *)
let rekey ~link ~drbg ~client ~server () =
  let clock = Link.clock link in
  let cost = Link.cost link in
  let stats = Link.stats link in
  let trace = Link.trace link in
  Trace.span trace "ike.rekey" @@ fun () ->
  Clock.advance clock cost.Cost.ike_rekey;
  Simnet.Stats.incr stats "ike.rekeys";
  let nonce = Drbg.bytes drbg 16 in
  (* Two small datagrams: nonce offer, nonce confirm. *)
  Link.transmit link (16 + 8);
  Link.transmit link (16 + 8);
  let derive old_sa label =
    let key =
      Dcrypto.Hmac.sha256 ~key:(Dcrypto.Secret.reveal (Sa.key old_sa))
        ("rekey:" ^ label ^ ":" ^ nonce)
    in
    let spi = 1 + ((Char.code key.[0] lsl 8) lor Char.code key.[1]) in
    let lifetime = match Sa.lifetime old_sa with l when l = max_int -> None | l -> Some l in
    Sa.create ~clock ~cost ~stats ~spi ~key ~cipher:(Sa.cipher old_sa) ?lifetime ~trace ()
  in
  (* client.tx and server.rx share a key (and likewise client.rx /
     server.tx), so deriving from each of the client's SAs yields the
     same keys the server would derive. *)
  let i2r = derive client.tx "i2r" in
  let r2i = derive client.rx "r2i" in
  let client' = { tx = i2r; rx = r2i; peer = client.peer } in
  let server' = { tx = r2i; rx = i2r; peer = server.peer } in
  (client', server')

(* A datagram the link delivers is its receiver's own buffer (every
   arrival is a distinct one, duplicates included), so each end opens
   it in place and decodes the plaintext where it lies. *)
let open_owned sa pkt = Esp.open_in_place sa (Bytes.unsafe_of_string pkt)

let rpc_channel ~client ~server =
  {
    Oncrpc.Rpc.server_open = open_owned server.rx;
    server_seal = Esp.seal_arena server.tx;
    client_open = open_owned client.rx;
    client_seal = Esp.seal_arena client.tx;
  }
