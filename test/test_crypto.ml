(* Crypto substrate tests: published test vectors (FIPS 180, RFC 2202,
   RFC 4231, RFC 8439) plus roundtrip properties for DSA/DH/DRBG. *)

module Hexcodec = Dcrypto.Hexcodec
module Sha1 = Dcrypto.Sha1
module Sha256 = Dcrypto.Sha256
module Hmac = Dcrypto.Hmac
module Chacha20 = Dcrypto.Chacha20
module Poly1305 = Dcrypto.Poly1305
module Drbg = Dcrypto.Drbg
module Dsa = Dcrypto.Dsa
module Dh = Dcrypto.Dh

let check_hex name expected got = Alcotest.(check string) name expected (Hexcodec.encode got)

let test_hexcodec () =
  Alcotest.(check string) "encode" "deadbeef" (Hexcodec.encode "\xde\xad\xbe\xef");
  Alcotest.(check string) "decode" "\xde\xad\xbe\xef" (Hexcodec.decode "DeadBeef");
  Alcotest.(check string) "empty" "" (Hexcodec.encode "");
  Alcotest.check_raises "odd" (Invalid_argument "Hexcodec.decode: odd length") (fun () ->
      ignore (Hexcodec.decode "abc"))

let test_sha1_vectors () =
  check_hex "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.digest "");
  check_hex "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.digest "abc");
  check_hex "two-block" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "448-bit boundary" "c1c8bbdc22796e28c0e15163d20899b65621d65a"
    (Sha1.digest (String.make 55 'a'));
  check_hex "512-bit boundary" "0098ba824b5c16427bd7a1122a5a442a25ec644d"
    (Sha1.digest (String.make 64 'a'))

let test_sha1_million () =
  check_hex "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.digest (String.make 1_000_000 'a'))

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two-block" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  String.iteri (fun i _ -> Sha256.update_sub ctx msg i 1) msg;
  let out = Bytes.create 32 in
  Sha256.finalize_into ctx out 0;
  Alcotest.(check string) "byte-at-a-time"
    (Hexcodec.encode (Sha256.digest msg))
    (Hexcodec.encode (Bytes.to_string out))

(* Ranges outside the input or the output are refused before any
   byte is absorbed or written, so the context hashes on unharmed. *)
let test_sha256_ranges () =
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let ctx = Sha256.init () in
  let out = Bytes.make 40 '.' in
  Sha256.update_sub ctx "ab" 0 2;
  refused "update past the end" (fun () -> Sha256.update_sub ctx "abc" 2 2);
  refused "negative offset" (fun () -> Sha256.update_sub ctx "abc" (-1) 1);
  refused "negative length" (fun () -> Sha256.update_sub ctx "abc" 1 (-1));
  refused "digest past the end" (fun () -> Sha256.finalize_into ctx out 9);
  refused "digest at a negative offset" (fun () -> Sha256.finalize_into ctx out (-1));
  Alcotest.(check string) "output untouched" (String.make 40 '.') (Bytes.to_string out);
  Sha256.update_sub ctx "xcx" 1 1;
  Sha256.finalize_into ctx out 8;
  Alcotest.(check string) "context unharmed" (Hexcodec.encode (Sha256.digest "abc"))
    (Hexcodec.encode (Bytes.sub_string out 8 32))

let test_hmac_vectors () =
  (* RFC 2202 case 1 / RFC 4231 case 1 *)
  let key = String.make 20 '\x0b' in
  check_hex "hmac-sha1 rfc2202-1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Hmac.sha1 ~key "Hi There");
  check_hex "hmac-sha256 rfc4231-1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key "Hi There");
  (* RFC 2202 case 2: short key *)
  check_hex "hmac-sha1 rfc2202-2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?");
  (* RFC 4231 case 6: key longer than block size *)
  let long_key = String.make 131 '\xaa' in
  check_hex "hmac-sha256 rfc4231-6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256 ~key:long_key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_kat_full () =
  (* The complete remaining RFC 2202 (HMAC-SHA1) and RFC 4231
     (HMAC-SHA256) known-answer sets: combined-key cases, truncation
     inputs, and the long-key/long-data cases. *)
  let k_aa20 = String.make 20 '\xaa' in
  let d_dd50 = String.make 50 '\xdd' in
  check_hex "hmac-sha1 rfc2202-3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (Hmac.sha1 ~key:k_aa20 d_dd50);
  check_hex "hmac-sha256 rfc4231-2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  check_hex "hmac-sha256 rfc4231-3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256 ~key:k_aa20 d_dd50);
  let k_incr = String.init 25 (fun i -> Char.chr (i + 1)) in
  let d_cd50 = String.make 50 '\xcd' in
  check_hex "hmac-sha1 rfc2202-4" "4c9007f4026250c6bc8414f9bf50c86c2d7235da"
    (Hmac.sha1 ~key:k_incr d_cd50);
  check_hex "hmac-sha256 rfc4231-4"
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.sha256 ~key:k_incr d_cd50);
  (* RFC 4231 case 5 specifies a 128-bit truncated output; we verify
     the prefix of the full tag. *)
  let k_0c20 = String.make 20 '\x0c' in
  check_hex "hmac-sha1 rfc2202-5" "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"
    (Hmac.sha1 ~key:k_0c20 "Test With Truncation");
  check_hex "hmac-sha256 rfc4231-5 (truncated)" "a3b6167473100ee06e0c796c2955552b"
    (String.sub (Hmac.sha256 ~key:k_0c20 "Test With Truncation") 0 16);
  let k_aa80 = String.make 80 '\xaa' in
  check_hex "hmac-sha1 rfc2202-6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Hmac.sha1 ~key:k_aa80 "Test Using Larger Than Block-Size Key - Hash Key First");
  check_hex "hmac-sha1 rfc2202-7" "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"
    (Hmac.sha1 ~key:k_aa80
       "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data");
  let k_aa131 = String.make 131 '\xaa' in
  check_hex "hmac-sha256 rfc4231-7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.sha256 ~key:k_aa131
       "This is a test using a larger than block-size key and a larger than \
        block-size data. The key needs to be hashed before being used by the \
        HMAC algorithm.")

let test_hmac_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal "abcd" "abcd");
  Alcotest.(check bool) "different" false (Hmac.equal "abcd" "abce");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal "abcd" "abc")

let test_chacha20_block () =
  (* RFC 8439 section 2.3.2 *)
  let key = Hexcodec.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hexcodec.decode "000000090000004a00000000" in
  let ks = Chacha20.block ~key ~nonce ~counter:1 in
  check_hex "keystream block"
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    ks

let test_chacha20_encrypt () =
  (* RFC 8439 section 2.4.2 *)
  let key = Hexcodec.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hexcodec.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you o\
     nly one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.crypt ~key ~nonce plaintext in
  check_hex "ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    ^ "5af90bbf74a35be6b40b8eedf2785e42874d")
    ct;
  Alcotest.(check string) "decrypt inverts" plaintext (Chacha20.crypt ~key ~nonce ct)

let test_poly1305 () =
  (* RFC 8439 section 2.5.2 *)
  let key = Hexcodec.decode "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let tag = Poly1305.mac ~key "Cryptographic Forum Research Group" in
  check_hex "tag" "a8061dc1305136c6c22b8baf0c0127a9" tag

let test_poly1305_key_gen () =
  (* RFC 8439 section 2.6.2: the one-time Poly1305 key is the first
     32 bytes of the ChaCha20 block at counter 0. *)
  let key = Hexcodec.decode "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = Hexcodec.decode "000000000001020304050607" in
  check_hex "one-time key"
    "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
    (String.sub (Chacha20.block ~key ~nonce ~counter:0) 0 32)

let test_chacha20_poly1305_aead () =
  (* RFC 8439 section 2.8.2: the full AEAD known answer, composed from
     the primitives exactly as the RFC specifies — one-time key from
     block 0, ciphertext from counter 1, tag over
     aad | pad16 | ct | pad16 | le64(|aad|) | le64(|ct|). *)
  let key = Hexcodec.decode "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = Hexcodec.decode "070000004041424344454647" in
  let aad = Hexcodec.decode "50515253c0c1c2c3c4c5c6c7" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you o\
     nly one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.crypt ~key ~nonce plaintext in
  check_hex "aead ciphertext"
    ("d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    ^ "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    ^ "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    ^ "3ff4def08e4b7a9de576d26586cec64b6116")
    ct;
  let otk = String.sub (Chacha20.block ~key ~nonce ~counter:0) 0 32 in
  let pad16 s = String.make ((16 - String.length s mod 16) mod 16) '\x00' in
  let le64 n =
    String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))
  in
  let mac_data =
    aad ^ pad16 aad ^ ct ^ pad16 ct
    ^ le64 (String.length aad)
    ^ le64 (String.length ct)
  in
  check_hex "aead tag" "1ae10b594f09e26a7e902ecbd0600691" (Poly1305.mac ~key:otk mac_data)

let test_drbg_determinism () =
  let a = Drbg.create ~seed:"seed" in
  let b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same seed same stream" (Drbg.bytes a 64) (Drbg.bytes b 64);
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed" false (Drbg.bytes c 64 = Drbg.bytes (Drbg.create ~seed:"seed") 64)

let test_drbg_fork () =
  let parent = Drbg.create ~seed:"seed" in
  let child1 = Drbg.fork parent ~label:"a" in
  let child2 = Drbg.fork parent ~label:"a" in
  (* Parent advanced between forks, so same label still diverges. *)
  Alcotest.(check bool) "children independent" false (Drbg.bytes child1 32 = Drbg.bytes child2 32)

(* The generator's stream, pinned from the string-concatenating
   implementation it replaced: bytes of several lengths (one short of,
   exactly and past a 32-byte block), a fork, a draw below the DSA q
   and an int draw, and an HMAC under a short key of the empty
   message, hashed together. *)
let test_drbg_known_answer () =
  let d = Drbg.create ~seed:"drbg-known-answer" in
  let a = Drbg.bytes d 1 in
  let b = Drbg.bytes d 32 in
  let c = Drbg.bytes d 33 in
  let e = Drbg.bytes d 100 in
  let f = Drbg.bytes (Drbg.fork d ~label:"child") 48 in
  let n = Drbg.nat_below d (Dsa.default_params ()).Dsa.q in
  let i = Drbg.int_below d 1000 in
  check_hex "first 66 bytes"
    "0d96b77316963abb3f17bcf1358358a733eb6157e9c4e0fdb36601981e55342d4c2fe03e62646bcc85712ed5343826771498d453b2c8bdf10d24161f2dd003e36720"
    (a ^ b ^ c);
  check_hex "forked child"
    "b5585d42383526bf260a67558712c900c241a64558afb276c8a5dce1b7901ba52fd6e62c8c948f2afdfadf2eb9e5bc79" f;
  Alcotest.(check int) "int draw" 546 i;
  check_hex "the whole stream"
    "5f5b59dd0b57801d686359a3b3d1f1d1af71f337fc1052b29b3bddc72af2b4bb"
    (Sha256.digest
       (String.concat ""
          [ a; b; c; e; f; Bignum.Nat.to_bytes_be n; string_of_int i; Hmac.sha256 ~key:"k" "" ]))

(* Hashing in parts, into an offset, in a reused state, equals hashing
   in one piece; HMAC in parts equals RFC 2104 spelled out with
   concatenation. Message lengths straddle the 55/56 and 64-byte
   padding boundaries; keys run past the 64-byte block. *)
let prop_sha256_parts =
  let reference ~key msg =
    let key = if String.length key > 64 then Sha256.digest key else key in
    let pad c = String.init 64 (fun i -> Char.chr (Char.code c lxor if i < String.length key then Char.code key.[i] else 0)) in
    Sha256.digest (pad '\x5c' ^ Sha256.digest (pad '\x36' ^ msg))
  in
  let sha = Sha256.init () and mac = Hmac.sha256_ctx () in
  QCheck.Test.make ~name:"sha256/hmac in parts == in one piece" ~count:300
    QCheck.(triple (string_of_size Gen.(int_range 0 140)) (string_of_size Gen.(int_range 0 200)) (small_list small_nat))
    (fun (key, msg, cuts) ->
      let len = String.length msg in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let feed add =
        let last = List.fold_left (fun from cut -> add msg from (cut - from); cut) 0 cuts in
        add msg last (len - last)
      in
      let out = Bytes.make 40 '\xff' and tag = Bytes.make 40 '\xff' in
      Sha256.reset sha;
      feed (Sha256.update_sub sha);
      Sha256.finalize_into sha out 3;
      Hmac.sha256_start mac ~key;
      feed (Hmac.sha256_add mac);
      Hmac.sha256_finish_into mac tag 8;
      Bytes.sub_string out 3 32 = Sha256.digest msg
      && Bytes.sub_string out 0 3 ^ Bytes.sub_string out 35 5 = String.make 8 '\xff'
      && Bytes.sub_string tag 8 32 = reference ~key msg
      && Hmac.sha256 ~key msg = reference ~key msg)

let test_drbg_bounds () =
  let drbg = Drbg.create ~seed:"bounds" in
  for _ = 1 to 200 do
    let v = Drbg.int_below drbg 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  let n = Bignum.Nat.of_int 1000 in
  for _ = 1 to 100 do
    let v = Drbg.nat_below drbg n in
    Alcotest.(check bool) "nat in range" true (Bignum.Nat.compare v n < 0)
  done

(* DSA tests share one key to amortize parameter generation. *)
let test_key =
  lazy
    (let drbg = Drbg.create ~seed:"test-dsa-key" in
     Dsa.generate_key drbg)

let test_dsa_roundtrip () =
  let key = Lazy.force test_key in
  let drbg = Drbg.create ~seed:"dsa-nonce" in
  let msg = "Authorizer: the administrator" in
  let signature = Dsa.sign ~key drbg msg in
  Alcotest.(check bool) "verifies" true (Dsa.verify ~key:key.Dsa.pub msg signature);
  Alcotest.(check bool) "tampered msg fails" false (Dsa.verify ~key:key.Dsa.pub (msg ^ "x") signature);
  let signature2 = Dsa.sign ~key drbg msg in
  Alcotest.(check bool) "fresh nonce verifies" true (Dsa.verify ~key:key.Dsa.pub msg signature2)

let test_dsa_wrong_key () =
  let key = Lazy.force test_key in
  let drbg = Drbg.create ~seed:"other-key" in
  let other = Dsa.generate_key drbg in
  let signature = Dsa.sign ~key drbg "msg" in
  Alcotest.(check bool) "wrong key rejects" false (Dsa.verify ~key:other.Dsa.pub "msg" signature)

let test_dsa_encoding () =
  let key = Lazy.force test_key in
  let enc = Dsa.pub_encode key.Dsa.pub in
  let dec = Dsa.pub_decode enc in
  Alcotest.(check bool) "pub roundtrip" true (String.equal (Dsa.pub_encode key.Dsa.pub) (Dsa.pub_encode dec));
  let drbg = Drbg.create ~seed:"sig-enc" in
  let signature = Dsa.sign ~key drbg "hello" in
  let sig2 = Dsa.sig_decode (Dsa.sig_encode signature) in
  Alcotest.(check bool) "sig roundtrip verifies" true (Dsa.verify ~key:key.Dsa.pub "hello" sig2);
  Alcotest.check_raises "garbage rejected" (Invalid_argument "Dsa: truncated component")
    (fun () -> ignore (Dsa.pub_decode "\x00\x09xx"))

let test_dsa_tampered_sig () =
  let key = Lazy.force test_key in
  let drbg = Drbg.create ~seed:"tamper" in
  let signature = Dsa.sign ~key drbg "msg" in
  let bad = { signature with Dsa.r = Bignum.Nat.succ signature.Dsa.r } in
  Alcotest.(check bool) "bumped r fails" false (Dsa.verify ~key:key.Dsa.pub "msg" bad);
  let zero = { Dsa.r = Bignum.Nat.zero; s = signature.Dsa.s } in
  Alcotest.(check bool) "zero r rejected" false (Dsa.verify ~key:key.Dsa.pub "msg" zero)

(* The committed default group is what its seed generates. *)
let test_default_group_seed () =
  let regenerated = Dsa.generate_params (Drbg.create ~seed:"discfs-default-dsa-group-v1") in
  let committed = Dsa.default_params () in
  List.iter2
    (fun name (a, b) -> Alcotest.(check string) name (Bignum.Nat.to_hex a) (Bignum.Nat.to_hex b))
    [ "p"; "q"; "g" ]
    [ (regenerated.Dsa.p, committed.Dsa.p); (regenerated.Dsa.q, committed.Dsa.q);
      (regenerated.Dsa.g, committed.Dsa.g) ]

let test_dsa_fingerprint () =
  let key = Lazy.force test_key in
  let fp = Dsa.fingerprint key.Dsa.pub in
  Alcotest.(check int) "16 hex chars" 16 (String.length fp);
  Alcotest.(check string) "stable" fp (Dsa.fingerprint key.Dsa.pub)

let test_des_vector () =
  (* The classic FIPS worked example. *)
  let key = Hexcodec.decode "133457799bbcdff1" in
  let pt = Hexcodec.decode "0123456789abcdef" in
  let ct = Dcrypto.Des.encrypt_block ~key pt in
  check_hex "des encrypt" "85e813540f0ab405" ct;
  Alcotest.(check string) "des decrypt" (Hexcodec.encode pt)
    (Hexcodec.encode (Dcrypto.Des.decrypt_block ~key ct));
  Alcotest.check_raises "bad key size" (Invalid_argument "Des: key must be 8 bytes") (fun () ->
      ignore (Dcrypto.Des.encrypt_block ~key:"short" pt))

let test_3des_degenerate () =
  (* 3DES with K1 = K2 = K3 is single DES: E(D(E(x))) = E(x). *)
  let k = Hexcodec.decode "133457799bbcdff1" in
  let key24 = k ^ k ^ k in
  let pt = Hexcodec.decode "0123456789abcdef" in
  check_hex "degenerate 3des = des" "85e813540f0ab405"
    (Dcrypto.Des.Triple.encrypt_block ~key:key24 pt)

let test_3des_cbc () =
  let key = String.sub (Sha256.digest "3des key material") 0 24 in
  let iv = String.sub (Sha256.digest "iv") 0 8 in
  let pt = "The quick brown fox jumps over the lazy dog" in
  let ct = Dcrypto.Des.Triple.cbc_encrypt ~key ~iv pt in
  Alcotest.(check bool) "padded to block multiple" true (String.length ct mod 8 = 0);
  Alcotest.(check bool) "strictly longer" true (String.length ct > String.length pt);
  Alcotest.(check string) "roundtrip" pt (Dcrypto.Des.Triple.cbc_decrypt ~key ~iv ct);
  (* Bit flip breaks padding or plaintext, never silently passes both
     blocks through unchanged. *)
  let bad = Bytes.of_string ct in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
  (match Dcrypto.Des.Triple.cbc_decrypt ~key ~iv (Bytes.to_string bad) with
  | exception Invalid_argument _ -> ()
  | pt' -> Alcotest.(check bool) "tamper changes plaintext" false (pt' = pt));
  Alcotest.check_raises "bad length" (Invalid_argument "Des.Triple.cbc_decrypt: bad length")
    (fun () -> ignore (Dcrypto.Des.Triple.cbc_decrypt ~key ~iv "12345"))

let prop_3des_cbc_roundtrip =
  QCheck.Test.make ~name:"3des-cbc roundtrip" ~count:50
    (QCheck.make QCheck.Gen.(string_size (int_range 0 200)))
    (fun pt ->
      let key = String.sub (Sha256.digest "k") 0 24 in
      let iv = String.sub (Sha256.digest "i") 0 8 in
      Dcrypto.Des.Triple.cbc_decrypt ~key ~iv (Dcrypto.Des.Triple.cbc_encrypt ~key ~iv pt) = pt)

let test_dh_agreement () =
  let drbg = Drbg.create ~seed:"dh" in
  let sec_a, share_a = Dh.gen drbg in
  let sec_b, share_b = Dh.gen drbg in
  let k_ab = Dh.shared sec_a share_b in
  let k_ba = Dh.shared sec_b share_a in
  Alcotest.(check string) "agreement" (Hexcodec.encode k_ab) (Hexcodec.encode k_ba);
  Alcotest.(check int) "32-byte key" 32 (String.length k_ab);
  Alcotest.check_raises "degenerate share" (Invalid_argument "Dh.shared: peer share out of range")
    (fun () -> ignore (Dh.shared sec_a Bignum.Nat.one))

(* The kernels against the reference oracle (test/oracle). *)
module Oracle = Kernel_oracle.Make (Chacha20) (Poly1305)

let prop_chacha_involutive =
  QCheck.Test.make ~name:"chacha crypt . crypt = id" ~count:50
    (QCheck.make QCheck.Gen.(string_size (int_range 0 300)))
    (fun data ->
      let key = Sha256.digest "k" in
      let nonce = String.sub (Sha256.digest "n") 0 12 in
      Chacha20.crypt ~key ~nonce (Chacha20.crypt ~key ~nonce data) = data)

let prop_hmac_distinct =
  QCheck.Test.make ~name:"hmac differs across keys" ~count:50
    (QCheck.make QCheck.Gen.(pair small_string small_string))
    (fun (k, msg) -> Hmac.sha256 ~key:("a" ^ k) msg <> Hmac.sha256 ~key:("b" ^ k) msg)

let suite =
  [
    Alcotest.test_case "hexcodec" `Quick test_hexcodec;
    Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
    Alcotest.test_case "sha1 million-a" `Slow test_sha1_million;
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "sha256 refuses out-of-range buffers" `Quick test_sha256_ranges;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac full rfc2202/4231 kat" `Quick test_hmac_kat_full;
    Alcotest.test_case "hmac constant-time equal" `Quick test_hmac_equal;
    Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block;
    Alcotest.test_case "chacha20 encrypt vector" `Quick test_chacha20_encrypt;
    Alcotest.test_case "poly1305 vector" `Quick test_poly1305;
    Alcotest.test_case "poly1305 key generation" `Quick test_poly1305_key_gen;
    Alcotest.test_case "chacha20-poly1305 aead rfc8439" `Quick test_chacha20_poly1305_aead;
    Alcotest.test_case "drbg determinism" `Quick test_drbg_determinism;
    Alcotest.test_case "drbg fork" `Quick test_drbg_fork;
    Alcotest.test_case "drbg bounds" `Quick test_drbg_bounds;
    Alcotest.test_case "drbg known-answer stream" `Quick test_drbg_known_answer;
    QCheck_alcotest.to_alcotest prop_sha256_parts;
    Alcotest.test_case "dsa sign/verify" `Quick test_dsa_roundtrip;
    Alcotest.test_case "dsa wrong key" `Quick test_dsa_wrong_key;
    Alcotest.test_case "dsa encoding" `Quick test_dsa_encoding;
    Alcotest.test_case "dsa tampered signature" `Quick test_dsa_tampered_sig;
    Alcotest.test_case "dsa fingerprint" `Quick test_dsa_fingerprint;
    Alcotest.test_case "default group = its seed" `Slow test_default_group_seed;
    Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
    Alcotest.test_case "des fips vector" `Quick test_des_vector;
    Alcotest.test_case "3des degenerate = des" `Quick test_3des_degenerate;
    Alcotest.test_case "3des cbc" `Quick test_3des_cbc;
    QCheck_alcotest.to_alcotest prop_3des_cbc_roundtrip;
    QCheck_alcotest.to_alcotest prop_chacha_involutive;
    QCheck_alcotest.to_alcotest prop_hmac_distinct;
  ]
  @ Oracle.tests
