(* Poly1305 with 26-bit limbs (the classic "donna" radix-2^26
   representation): the 130-bit accumulator and clamped key live in
   five limbs, so every partial product fits comfortably in OCaml's
   63-bit native int and reduction mod 2^130-5 folds the high limbs
   back with a multiply by 5. *)

let tag_size = 16

let le32 s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

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
  (* Full 16-byte blocks are read straight from [msg] with the 2^128
     pad bit; only a final partial block is staged, zero-padded with
     its 2^(8n) bit, through this buffer. *)
  let staged = Bytes.make 17 '\000' in
  let pos = ref off in
  while !pos < stop do
    let n = min 16 (stop - !pos) in
    let full = n = 16 in
    if not full then begin
      Bytes.blit_string msg !pos staged 0 n;
      Bytes.set staged n '\001'
    end;
    let b = if full then msg else Bytes.unsafe_to_string staged in
    let at = if full then !pos else 0 in
    let t0 = le32 b at and t1 = le32 b (at + 4) and t2 = le32 b (at + 8) in
    let t3 = le32 b (at + 12) in
    let t4 = if full then 1 else 0 in
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
  let c = !h1 lsr 26 in
  h1 := !h1 land mask26;
  h2 := !h2 + c;
  let c = !h2 lsr 26 in
  h2 := !h2 land mask26;
  h3 := !h3 + c;
  let c = !h3 lsr 26 in
  h3 := !h3 land mask26;
  h4 := !h4 + c;
  let c = !h4 lsr 26 in
  h4 := !h4 land mask26;
  h0 := !h0 + (c * 5);
  let c = !h0 lsr 26 in
  h0 := !h0 land mask26;
  h1 := !h1 + c;
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
  Bytes.set_int32_le out 0 (Int32.of_int f0);
  Bytes.set_int32_le out 4 (Int32.of_int f1);
  Bytes.set_int32_le out 8 (Int32.of_int f2);
  Bytes.set_int32_le out 12 (Int32.of_int f3);
  Bytes.unsafe_to_string out

let mac ~key msg = mac_sub ~key msg ~off:0 ~len:(String.length msg)
