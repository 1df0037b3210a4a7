(* The ChaCha20/Poly1305 oracle: a deliberately naive reference
   implementation and the checks every build of the kernels must pass
   against it, byte for byte. It is a functor over the kernels so the
   same checks run on the library (test_crypto) and on the portable
   build of the C stub (test/portable). *)

module type CHACHA20 = sig
  val crypt : key:string -> nonce:string -> string -> string

  val xor_from :
    key:string ->
    nonce:string ->
    ?counter:int ->
    string ->
    src_off:int ->
    Bytes.t ->
    off:int ->
    len:int ->
    unit

  val xor_into :
    key:string -> nonce:string -> ?counter:int -> Bytes.t -> off:int -> len:int -> unit

  val block : key:string -> nonce:string -> counter:int -> string
end

module type POLY1305 = sig
  val mac_sub : key:string -> string -> off:int -> len:int -> string
end

(* The array-based ChaCha20 and the fully staged Poly1305 the library
   shipped before its allocation-free kernels, kept verbatim as the
   oracle the kernels must match byte for byte. *)
module Reference = struct
  let m32 x = x land 0xffffffff
  let rotl32 x n = m32 ((x lsl n) lor (x lsr (32 - n)))

  let word_le s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)

  let quarter st a b c d =
    st.(a) <- m32 (st.(a) + st.(b));
    st.(d) <- rotl32 (st.(d) lxor st.(a)) 16;
    st.(c) <- m32 (st.(c) + st.(d));
    st.(b) <- rotl32 (st.(b) lxor st.(c)) 12;
    st.(a) <- m32 (st.(a) + st.(b));
    st.(d) <- rotl32 (st.(d) lxor st.(a)) 8;
    st.(c) <- m32 (st.(c) + st.(d));
    st.(b) <- rotl32 (st.(b) lxor st.(c)) 7

  let init_state ~key ~nonce ~counter =
    let st = Array.make 16 0 in
    st.(0) <- 0x61707865;
    st.(1) <- 0x3320646e;
    st.(2) <- 0x79622d32;
    st.(3) <- 0x6b206574;
    for i = 0 to 7 do
      st.(4 + i) <- word_le key (i * 4)
    done;
    st.(12) <- m32 counter;
    for i = 0 to 2 do
      st.(13 + i) <- word_le nonce (i * 4)
    done;
    st

  let block_into ~state out off =
    let st = Array.copy state in
    for _ = 1 to 10 do
      quarter st 0 4 8 12;
      quarter st 1 5 9 13;
      quarter st 2 6 10 14;
      quarter st 3 7 11 15;
      quarter st 0 5 10 15;
      quarter st 1 6 11 12;
      quarter st 2 7 8 13;
      quarter st 3 4 9 14
    done;
    for i = 0 to 15 do
      let w = m32 (st.(i) + state.(i)) in
      Bytes.set out (off + (i * 4)) (Char.chr (w land 0xff));
      Bytes.set out (off + (i * 4) + 1) (Char.chr ((w lsr 8) land 0xff));
      Bytes.set out (off + (i * 4) + 2) (Char.chr ((w lsr 16) land 0xff));
      Bytes.set out (off + (i * 4) + 3) (Char.chr ((w lsr 24) land 0xff))
    done

  let block ~key ~nonce ~counter =
    let state = init_state ~key ~nonce ~counter in
    let out = Bytes.create 64 in
    block_into ~state out 0;
    Bytes.to_string out

  let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length buf then
      invalid_arg "Chacha20.xor_into: range out of bounds";
    let ks = Bytes.create 64 in
    let nblocks = (len + 63) / 64 in
    for b = 0 to nblocks - 1 do
      let state = init_state ~key ~nonce ~counter:(counter + b) in
      block_into ~state ks 0;
      let base = off + (b * 64) in
      let n = min 64 (len - (b * 64)) in
      for i = 0 to n - 1 do
        Bytes.set buf (base + i)
          (Char.chr (Char.code (Bytes.get buf (base + i)) lxor Char.code (Bytes.get ks i)))
      done
    done

  let crypt ~key ~nonce ?(counter = 1) data =
    let len = String.length data in
    let out = Bytes.of_string data in
    xor_into ~key ~nonce ~counter out ~off:0 ~len;
    Bytes.to_string out

  let le32 s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)

  let mask26 = (1 lsl 26) - 1

  let mac_sub ~key msg ~off ~len =
    if String.length key <> 32 then invalid_arg "Poly1305: key must be 32 bytes";
    if off < 0 || len < 0 || off + len > String.length msg then
      invalid_arg "Poly1305.mac_sub: range out of bounds";
    (* r: clamped first half of the key, split into 26-bit limbs. *)
    let t0 = le32 key 0 and t1 = le32 key 4 and t2 = le32 key 8 and t3 = le32 key 12 in
    let r0 = t0 land 0x3ffffff in
    let r1 = ((t0 lsr 26) lor (t1 lsl 6)) land 0x3ffff03 in
    let r2 = ((t1 lsr 20) lor (t2 lsl 12)) land 0x3ffc0ff in
    let r3 = ((t2 lsr 14) lor (t3 lsl 18)) land 0x3f03fff in
    let r4 = (t3 lsr 8) land 0x00fffff in
    let s1 = 5 * r1 and s2 = 5 * r2 and s3 = 5 * r3 and s4 = 5 * r4 in
    let h0 = ref 0 and h1 = ref 0 and h2 = ref 0 and h3 = ref 0 and h4 = ref 0 in
    let stop = off + len in
    let block = Bytes.make 17 '\000' in
    let pos = ref off in
    while !pos < stop do
      let n = min 16 (stop - !pos) in
      Bytes.fill block 0 17 '\000';
      Bytes.blit_string msg !pos block 0 n;
      Bytes.set block n '\001' (* the 2^(8n) bit *);
      let b = Bytes.unsafe_to_string block in
      let t0 = le32 b 0 and t1 = le32 b 4 and t2 = le32 b 8 and t3 = le32 b 12 in
      let t4 = Char.code b.[16] in
      h0 := !h0 + (t0 land 0x3ffffff);
      h1 := !h1 + (((t0 lsr 26) lor (t1 lsl 6)) land 0x3ffffff);
      h2 := !h2 + (((t1 lsr 20) lor (t2 lsl 12)) land 0x3ffffff);
      h3 := !h3 + (((t2 lsr 14) lor (t3 lsl 18)) land 0x3ffffff);
      h4 := !h4 + ((t3 lsr 8) lor (t4 lsl 24));
      (* h <- h * r mod 2^130 - 5 *)
      let d0 = (!h0 * r0) + (!h1 * s4) + (!h2 * s3) + (!h3 * s2) + (!h4 * s1) in
      let d1 = (!h0 * r1) + (!h1 * r0) + (!h2 * s4) + (!h3 * s3) + (!h4 * s2) in
      let d2 = (!h0 * r2) + (!h1 * r1) + (!h2 * r0) + (!h3 * s4) + (!h4 * s3) in
      let d3 = (!h0 * r3) + (!h1 * r2) + (!h2 * r1) + (!h3 * r0) + (!h4 * s4) in
      let d4 = (!h0 * r4) + (!h1 * r3) + (!h2 * r2) + (!h3 * r1) + (!h4 * r0) in
      let c = d0 lsr 26 in
      h0 := d0 land mask26;
      let d1 = d1 + c in
      let c = d1 lsr 26 in
      h1 := d1 land mask26;
      let d2 = d2 + c in
      let c = d2 lsr 26 in
      h2 := d2 land mask26;
      let d3 = d3 + c in
      let c = d3 lsr 26 in
      h3 := d3 land mask26;
      let d4 = d4 + c in
      let c = d4 lsr 26 in
      h4 := d4 land mask26;
      h0 := !h0 + (c * 5);
      let c = !h0 lsr 26 in
      h0 := !h0 land mask26;
      h1 := !h1 + c;
      pos := !pos + n
    done;
    (* Full carry and reduce below 2^130 - 5. *)
    let c = ref 0 in
    let carry h = let v = !h + !c in c := v lsr 26; h := v land mask26 in
    c := 0; carry h1; carry h2; carry h3; carry h4;
    h0 := !h0 + (!c * 5);
    c := 0; carry h0; h1 := !h1 + !c;
    (* Compute h + 5 - 2^130; select it if non-negative. *)
    let g0 = !h0 + 5 in
    let c0 = g0 lsr 26 in
    let g0 = g0 land mask26 in
    let g1 = !h1 + c0 in
    let c1 = g1 lsr 26 in
    let g1 = g1 land mask26 in
    let g2 = !h2 + c1 in
    let c2 = g2 lsr 26 in
    let g2 = g2 land mask26 in
    let g3 = !h3 + c2 in
    let c3 = g3 lsr 26 in
    let g3 = g3 land mask26 in
    let g4 = !h4 + c3 - (1 lsl 26) in
    if g4 >= 0 then begin
      h0 := g0; h1 := g1; h2 := g2; h3 := g3; h4 := g4
    end;
    (* tag = (h + s) mod 2^128, little-endian. *)
    let k0 = le32 key 16 and k1 = le32 key 20 and k2 = le32 key 24 and k3 = le32 key 28 in
    let f0 = (!h0 lor (!h1 lsl 26)) land 0xffffffff in
    let f1 = ((!h1 lsr 6) lor (!h2 lsl 20)) land 0xffffffff in
    let f2 = ((!h2 lsr 12) lor (!h3 lsl 14)) land 0xffffffff in
    let f3 = ((!h3 lsr 18) lor (!h4 lsl 8)) land 0xffffffff in
    let f0 = f0 + k0 in
    let f1 = f1 + k1 + (f0 lsr 32) in
    let f2 = f2 + k2 + (f1 lsr 32) in
    let f3 = f3 + k3 + (f2 lsr 32) in
    let out = Bytes.create 16 in
    let put32 off v =
      Bytes.set out off (Char.chr (v land 0xff));
      Bytes.set out (off + 1) (Char.chr ((v lsr 8) land 0xff));
      Bytes.set out (off + 2) (Char.chr ((v lsr 16) land 0xff));
      Bytes.set out (off + 3) (Char.chr ((v lsr 24) land 0xff))
    in
    put32 0 f0;
    put32 4 f1;
    put32 8 f2;
    put32 12 f3;
    Bytes.to_string out

  let mac ~key msg = mac_sub ~key msg ~off:0 ~len:(String.length msg)
end

module Make (Chacha20 : CHACHA20) (Poly1305 : POLY1305) = struct
  (* Random keys, nonces and counters (the 32-bit wrap included),
     lengths 0-300 plus a full 8 KB page, and random offsets: every
     ChaCha20 entry point and [mac_sub] must agree with the reference
     byte for byte — including the bytes around the range they were
     told to touch. *)
  let prop_kernels_match_reference =
    let gen =
      QCheck.Gen.(
        let* key = string_size (return 32) in
        let* nonce = string_size (return 12) in
        let* counter =
          oneof [ return 0; return 1; return 0xffffffff; return 0xfffffffe; int_bound 0xffffffff ]
        in
        let* len = frequency [ (9, int_range 0 300); (1, return 8192) ] in
        let* src_off = int_bound 17 in
        let* off = int_bound 17 in
        let* data = string_size (return (src_off + len + 9)) in
        let* filler = string_size (return (off + len + 9)) in
        return (key, nonce, counter, len, src_off, off, data, filler))
    in
    QCheck.Test.make ~name:"chacha20/poly1305 kernels = reference" ~count:300
      (QCheck.make gen)
      (fun (key, nonce, counter, len, src_off, off, data, filler) ->
        (* xor_into over a range of a larger buffer *)
        let got = Bytes.of_string filler and want = Bytes.of_string filler in
        Chacha20.xor_into ~key ~nonce ~counter got ~off ~len;
        Reference.xor_into ~key ~nonce ~counter want ~off ~len;
        (* xor_from: source range -> destination range *)
        let got_from = Bytes.of_string filler in
        Chacha20.xor_from ~key ~nonce ~counter data ~src_off got_from ~off ~len;
        let want_from = Bytes.of_string filler in
        Bytes.blit_string
          (Reference.crypt ~key ~nonce ~counter (String.sub data src_off len))
          0 want_from off len;
        let plain = String.sub data src_off len in
        Bytes.equal got want && Bytes.equal got_from want_from
        && String.equal (Chacha20.crypt ~key ~nonce plain)
             (Reference.crypt ~key ~nonce ~counter:1 plain)
        && String.equal (Chacha20.block ~key ~nonce ~counter)
             (Reference.block ~key ~nonce ~counter)
        && String.equal
             (Poly1305.mac_sub ~key data ~off:src_off ~len)
             (Reference.mac_sub ~key data ~off:src_off ~len))

  let key = String.init 32 (fun i -> Char.chr (((i * 37) + 11) land 0xff))
  let nonce = String.init 12 (fun i -> Char.chr (((i * 91) + 5) land 0xff))
  let max_len = 1100
  let data = String.init (max_len + 24) (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xff))
  let filler = String.make (max_len + 24) '\xa5'

  (* [xor_into] in place and [xor_from] between ranges of larger
     buffers, and [mac_sub] over a range, must equal the reference. *)
  let agree ~counter ~len ~src_off ~off =
    let got = Bytes.of_string filler in
    Bytes.blit_string data src_off got off len;
    let want = Bytes.copy got in
    Chacha20.xor_into ~key ~nonce ~counter got ~off ~len;
    Reference.xor_into ~key ~nonce ~counter want ~off ~len;
    let got_from = Bytes.of_string filler in
    Chacha20.xor_from ~key ~nonce ~counter data ~src_off got_from ~off ~len;
    Bytes.equal got want
    && Bytes.equal got_from want
    && String.equal
         (Poly1305.mac_sub ~key data ~off:src_off ~len)
         (Reference.mac_sub ~key data ~off:src_off ~len)

  (* Every length up to 1100: each split of a length into 256-byte
     batches, 64-byte blocks, 8-byte lanes and a byte tail, and every
     partial Poly1305 block, at offsets that vary with the length. *)
  let test_every_length () =
    for len = 0 to max_len do
      if not (agree ~counter:1 ~len ~src_off:(len mod 7) ~off:(len mod 5)) then
        Alcotest.failf "kernels differ from the reference at length %d" len
    done

  (* Counters just below 2^32 with at least one full batch: the 32-bit
     wrap lands inside a four-block batch, in each lane position. *)
  let test_counter_wrap () =
    List.iter
      (fun counter ->
        List.iter
          (fun len ->
            if not (agree ~counter ~len ~src_off:3 ~off:1) then
              Alcotest.failf "kernels differ from the reference at counter %#x, length %d"
                counter len;
            if
              not
                (String.equal (Chacha20.block ~key ~nonce ~counter)
                   (Reference.block ~key ~nonce ~counter))
            then Alcotest.failf "block differs from the reference at counter %#x" counter)
          [ 256; 257; 320; 511; 512; 1100 ])
      [ 0xfffffffc; 0xfffffffd; 0xfffffffe; 0xffffffff ]

  let tests =
    [
      QCheck_alcotest.to_alcotest prop_kernels_match_reference;
      Alcotest.test_case "kernels = reference at lengths 0-1100" `Quick test_every_length;
      Alcotest.test_case "kernels = reference across the counter wrap" `Quick test_counter_wrap;
    ]
end
