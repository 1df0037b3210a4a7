(* The pre-arena wire pipeline, kept as the golden reference for the
   RPC and ESP hot path: a nested Buffer for the credential body, a
   Buffer for the message, and string slicing and concatenation for
   the ESP packet. Every function here must produce exactly the bytes
   the arena pipeline does; the hot-path tests assert it over a call
   corpus, and the hotpath benchmark asserts it before comparing the
   two pipelines' allocations. *)

let str_be32 v = String.init 4 (fun i -> Char.chr ((v lsr ((3 - i) * 8)) land 0xff))
let str_be64 v = String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xff))

let buf_be32 b v =
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (i * 8)) land 0xff))
  done

(* A CALL frame around pre-marshalled arguments. *)
let encode_call ~xid ~prog ~vers ~proc ~uid args =
  (* the nested buffer the arena's sub_writer replaced *)
  let cred = Buffer.create 16 in
  buf_be32 cred uid;
  let cred_body = Buffer.contents cred in
  let b = Buffer.create 256 in
  buf_be32 b xid;
  buf_be32 b 0 (* CALL *);
  buf_be32 b 2 (* rpcvers *);
  buf_be32 b prog;
  buf_be32 b vers;
  buf_be32 b proc;
  buf_be32 b 1 (* AUTH_UNIX *);
  buf_be32 b (String.length cred_body);
  Buffer.add_string b cred_body (* 4 bytes: no pad *);
  buf_be32 b 0 (* verf: AUTH_NONE *);
  buf_be32 b 0 (* empty opaque *);
  Buffer.add_string b args;
  Buffer.contents b

(* An accepted REPLY frame: [Ok results] carries pre-marshalled
   results behind SUCCESS, [Error stat] the bare accept_stat. *)
let encode_reply ~xid outcome =
  let b = Buffer.create 64 in
  buf_be32 b xid;
  buf_be32 b 1 (* REPLY *);
  buf_be32 b 0 (* MSG_ACCEPTED *);
  buf_be32 b 0 (* verf AUTH_NONE *);
  buf_be32 b 0 (* empty opaque *);
  (match outcome with
  | Ok results ->
    buf_be32 b 0 (* SUCCESS *);
    Buffer.add_string b results
  | Error stat -> buf_be32 b stat);
  Buffer.contents b

(* ChaCha20-Poly1305 ESP under the SA's next sequence number, built by
   concatenation. *)
let seal sa payload =
  let seq = Ipsec.Sa.next_seq sa in
  let header = str_be32 (Ipsec.Sa.spi sa) ^ str_be64 seq in
  let key = Dcrypto.Secret.reveal (Ipsec.Sa.key sa) in
  let nonce = "\000\000\000\000" ^ str_be64 seq in
  let ciphertext = Dcrypto.Chacha20.crypt ~key ~nonce payload in
  let otk = String.sub (Dcrypto.Chacha20.block ~key ~nonce ~counter:0) 0 32 in
  let tag = Dcrypto.Poly1305.mac ~key:otk (header ^ ciphertext) in
  header ^ ciphertext ^ tag

(* The four-copy open the one-copy [Esp.open_] replaced: slice the
   ciphertext and the tag out of the packet, MAC a header ^ ciphertext
   concatenation, and decrypt through a mutable copy of the
   ciphertext into a fresh plaintext string. *)
let open_ sa packet =
  let n = String.length packet in
  let seq = Int64.to_int (String.get_int64_be packet 4) in
  let header = String.sub packet 0 12 in
  let key = Dcrypto.Secret.reveal (Ipsec.Sa.key sa) in
  let nonce = "\000\000\000\000" ^ str_be64 seq in
  let ciphertext = String.sub packet 12 (n - Ipsec.Esp.overhead) in
  let tag = String.sub packet (n - 16) 16 in
  let otk = String.sub (Dcrypto.Chacha20.block ~key ~nonce ~counter:0) 0 32 in
  if not (Dcrypto.Hmac.equal tag (Dcrypto.Poly1305.mac ~key:otk (header ^ ciphertext))) then
    failwith "Wire_oracle.open_: authentication failed";
  if not (Ipsec.Sa.replay_check sa seq) then failwith "Wire_oracle.open_: replayed sequence";
  let plain = Bytes.of_string ciphertext in
  Dcrypto.Chacha20.xor_into ~key ~nonce ~counter:1 plain ~off:0 ~len:(Bytes.length plain);
  Bytes.to_string plain
