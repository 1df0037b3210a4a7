module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats

exception Esp_error of string

let header_len = 12 (* spi(4) + seq(8) *)
let tag_len = 16
let overhead = header_len + tag_len

let charge sa nbytes =
  let c = Sa.cost sa in
  let per_byte =
    match Sa.cipher sa with
    | Sa.Chacha20_poly1305 -> c.Cost.esp_per_byte
    | Sa.Tdes_hmac_sha1 -> c.Cost.esp_tdes_per_byte
  in
  Clock.advance (Sa.clock sa) (c.Cost.esp_per_packet +. (float_of_int nbytes *. per_byte));
  Stats.incr (Sa.stats sa) "esp.packets";
  Stats.add (Sa.stats sa) "esp.bytes" nbytes

let be32 v = String.init 4 (fun i -> Char.chr ((v lsr ((3 - i) * 8)) land 0xff))
let be64 v = String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xff))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let read_be64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let nonce_of_seq seq = "\000\000\000\000" ^ be64 seq

(* AEAD construction in the RFC 8439 style: the Poly1305 one-time key
   is keystream block 0; the tag covers header ("AAD") and
   ciphertext. Only its first 32 bytes are used, so only those are
   generated. *)
let one_time_key ~key ~nonce =
  let otk = Bytes.make 32 '\000' in
  Dcrypto.Chacha20.xor_into ~key ~nonce ~counter:0 otk ~off:0 ~len:32;
  Bytes.unsafe_to_string otk

(* 3DES-HMAC-SHA1 subkeys derived from the 32-byte SA key. *)
let tdes_keys sa =
  let base = Dcrypto.Secret.reveal (Sa.key sa) in
  let enc = String.sub (Dcrypto.Hmac.sha256 ~key:base "3des-cipher" ^ base) 0 24 in
  let auth = Dcrypto.Hmac.sha256 ~key:base "hmac-auth" in
  (enc, auth)

let tdes_tag_len = 12 (* HMAC-SHA1-96 *)

let tdes_iv sa seq =
  String.sub (Dcrypto.Hmac.sha256 ~key:(Dcrypto.Secret.reveal (Sa.key sa)) ("iv" ^ be64 seq)) 0 8

(* --- seal ------------------------------------------------------------- *)

(* The one seal core: charge, take the next sequence number, and turn
   the [len]-byte payload that [gather src dst off] writes into the
   wire packet ([gather] is a closed function and [src] its argument,
   so neither caller allocates a closure). Under ChaCha20 the packet
   is the one allocation: the header is written in place, the payload
   is gathered straight behind it and encrypted where it lies, and
   the tag MACs the packet prefix in place. [src] is only read. *)
let seal_core sa ~len gather src =
  charge sa (len + overhead);
  let seq = Sa.next_seq sa in
  match Sa.cipher sa with
  | Sa.Chacha20_poly1305 ->
    let key = Dcrypto.Secret.reveal (Sa.key sa) in
    let nonce = nonce_of_seq seq in
    let pkt = Bytes.create (header_len + len + tag_len) in
    Bytes.set_int32_be pkt 0 (Int32.of_int (Sa.spi sa));
    Bytes.set_int64_be pkt 4 (Int64.of_int seq);
    gather src pkt header_len;
    Dcrypto.Chacha20.xor_into ~key ~nonce ~counter:1 pkt ~off:header_len ~len;
    (* unsafe_to_string: a read-only view for the MAC; the tag is
       written behind the range it covers. *)
    let tag =
      Dcrypto.Poly1305.mac_sub ~key:(one_time_key ~key ~nonce) (Bytes.unsafe_to_string pkt)
        ~off:0 ~len:(header_len + len)
    in
    Bytes.blit_string tag 0 pkt (header_len + len) tag_len;
    Bytes.unsafe_to_string pkt
  | Sa.Tdes_hmac_sha1 ->
    (* CBC padding re-blocks the payload, so there is no one-copy
       win; the legacy transform keeps the copying path. *)
    let header = be32 (Sa.spi sa) ^ be64 seq in
    let enc_key, auth_key = tdes_keys sa in
    let plain = Bytes.create len in
    gather src plain 0;
    let ciphertext =
      Dcrypto.Des.Triple.cbc_encrypt ~key:enc_key ~iv:(tdes_iv sa seq)
        (Bytes.unsafe_to_string plain)
    in
    let tag = String.sub (Dcrypto.Hmac.sha1 ~key:auth_key (header ^ ciphertext)) 0 tdes_tag_len in
    header ^ ciphertext ^ tag

(* The span's closure is built only for a live tracer: under
   [Trace.null] a seal allocates the packet and nothing for tracing. *)
let seal_with sa ~len gather src =
  let tr = Sa.trace sa in
  if Trace.enabled tr then Trace.span tr "esp.seal" (fun () -> seal_core sa ~len gather src)
  else seal_core sa ~len gather src

let seal sa payload =
  seal_with sa ~len:(String.length payload)
    (fun s dst off -> Bytes.blit_string s 0 dst off (String.length s))
    payload

(* A caller that wants the fused encode->seal path builds its message
   inside [arena_enc a]; [seal_arena] gathers the arena — own bytes
   and borrowed ranges — straight into the wire packet. The arena is
   only read, so one arena can be sealed again — each time under a
   fresh sequence number — for a retransmission. *)
type arena = Xdr.Enc.t

let arena () =
  (* discfs-lint: allow hotpath-alloc "the arena itself: the one allocation the fused pipeline amortizes" *)
  Xdr.Enc.create ()

let arena_enc a = a
let seal_arena sa a = seal_with sa ~len:(Xdr.Enc.length a) Xdr.Enc.gather a

(* A packet failing the shape checks below never reaches a slice or
   the crypto; every such drop lands under one metric so a flood of
   wire garbage is visible at a glance. *)
let malformed sa msg =
  Stats.incr (Sa.stats sa) "esp.drop.malformed";
  raise (Esp_error msg)

(* Where the open core puts the plaintext: over the ciphertext in the
   packet itself, or in a fresh buffer (the string shim). *)
type dst =
  | In_place
  | Fresh

(* The one open core, in RFC 4303 §3.4's inbound order: length, SPI,
   tag and replay window are checked reading [pkt] alone, so a packet
   that fails any of them raises with every byte as it arrived; only
   an authenticated, fresh packet is decrypted. Under ChaCha20 the
   plaintext then lands where [dst] says and the result is a view
   bounded to it. 3DES keeps its copying transform whatever [dst]
   says: it serves only the period-cost ablation. *)
let open_core sa pkt dst =
  (* unsafe_to_string: a read-only view for the checks and the MAC;
     [pkt] is written only by the in-place decrypt, after them. *)
  let packet = Bytes.unsafe_to_string pkt in
  let n = String.length packet in
  (* Per-cipher length validation, before any slicing: the ChaCha20
     minimum is header + 16-byte tag; 3DES needs header + 12-byte tag
     plus at least one 8-byte CBC block, and a whole number of
     blocks. *)
  (match Sa.cipher sa with
  | Sa.Chacha20_poly1305 -> if n < overhead then malformed sa "packet too short"
  | Sa.Tdes_hmac_sha1 ->
    if n < header_len + tdes_tag_len + 8 then malformed sa "packet too short"
    else if (n - header_len - tdes_tag_len) mod 8 <> 0 then
      malformed sa "ragged cipher block");
  charge sa n;
  let spi = read_be32 packet 0 in
  if spi <> Sa.spi sa then raise (Esp_error (Printf.sprintf "unknown SPI %d" spi));
  let seq = read_be64 packet 4 in
  match Sa.cipher sa with
  | Sa.Chacha20_poly1305 -> (
    let key = Dcrypto.Secret.reveal (Sa.key sa) in
    let nonce = nonce_of_seq seq in
    (* MAC the header + ciphertext prefix where it lies. *)
    let expected =
      Dcrypto.Poly1305.mac_sub ~key:(one_time_key ~key ~nonce) packet ~off:0 ~len:(n - tag_len)
    in
    let tag = String.sub packet (n - tag_len) tag_len in
    if not (Dcrypto.Hmac.equal tag expected) then raise (Esp_error "authentication failed");
    if not (Sa.replay_check sa seq) then
      raise (Esp_error (Printf.sprintf "replayed sequence %d" seq));
    let len = n - overhead in
    match dst with
    | In_place ->
      Dcrypto.Chacha20.xor_into ~key ~nonce ~counter:1 pkt ~off:header_len ~len;
      Xdr.Dec.sub packet ~off:header_len ~len
    | Fresh ->
      let plain = Bytes.create len in
      Dcrypto.Chacha20.xor_from ~key ~nonce ~counter:1 packet ~src_off:header_len plain ~off:0
        ~len;
      Xdr.Dec.of_string (Bytes.unsafe_to_string plain))
  | Sa.Tdes_hmac_sha1 ->
    let header = String.sub packet 0 header_len in
    let enc_key, auth_key = tdes_keys sa in
    let ciphertext = String.sub packet header_len (n - header_len - tdes_tag_len) in
    let tag = String.sub packet (n - tdes_tag_len) tdes_tag_len in
    let expected = String.sub (Dcrypto.Hmac.sha1 ~key:auth_key (header ^ ciphertext)) 0 tdes_tag_len in
    if not (Dcrypto.Hmac.equal tag expected) then raise (Esp_error "authentication failed");
    if not (Sa.replay_check sa seq) then
      raise (Esp_error (Printf.sprintf "replayed sequence %d" seq));
    Xdr.Dec.of_string
      (try Dcrypto.Des.Triple.cbc_decrypt ~key:enc_key ~iv:(tdes_iv sa seq) ciphertext
       with Invalid_argument m -> raise (Esp_error m))

let open_with sa pkt dst =
  let tr = Sa.trace sa in
  if Trace.enabled tr then Trace.span tr "esp.open" (fun () -> open_core sa pkt dst)
  else open_core sa pkt dst

let open_in_place sa pkt = open_with sa pkt In_place

(* The string entry point: [packet] is only read, and the plaintext
   is the one fresh copy. *)
let open_ sa packet = Xdr.Dec.rest (open_with sa (Bytes.unsafe_of_string packet) Fresh)
