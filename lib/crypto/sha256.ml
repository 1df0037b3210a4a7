(* SHA-256 on native ints masked to 32 bits, same approach as Sha1. *)

let m32 x = x land 0xffffffff
let rotr32 x n = m32 ((x lsr n) lor (x lsl (32 - n)))

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int;
  w : int array;
}

let reset ctx =
  ctx.h.(0) <- 0x6a09e667;
  ctx.h.(1) <- 0xbb67ae85;
  ctx.h.(2) <- 0x3c6ef372;
  ctx.h.(3) <- 0xa54ff53a;
  ctx.h.(4) <- 0x510e527f;
  ctx.h.(5) <- 0x9b05688c;
  ctx.h.(6) <- 0x1f83d9ab;
  ctx.h.(7) <- 0x5be0cd19;
  ctx.buf_len <- 0;
  ctx.total <- 0

let init () =
  let ctx = { h = Array.make 8 0; buf = Bytes.make 64 '\000'; buf_len = 0; total = 0; w = Array.make 64 0 } in
  reset ctx;
  ctx

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done;
  for i = 16 to 63 do
    let s0 = rotr32 w.(i - 15) 7 lxor rotr32 w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr32 w.(i - 2) 17 lxor rotr32 w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- m32 (w.(i - 16) + s0 + w.(i - 7) + s1)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr32 !e 6 lxor rotr32 !e 11 lxor rotr32 !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land 0xffffffff in
    let t1 = m32 (!hh + s1 + (m32 ch) + k.(i) + w.(i)) in
    let s0 = rotr32 !a 2 lxor rotr32 !a 13 lxor rotr32 !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = m32 (s0 + maj) in
    hh := !g;
    g := !f;
    f := !e;
    e := m32 (!d + t1);
    d := !c;
    c := !b;
    b := !a;
    a := m32 (t1 + t2)
  done;
  h.(0) <- m32 (h.(0) + !a);
  h.(1) <- m32 (h.(1) + !b);
  h.(2) <- m32 (h.(2) + !c);
  h.(3) <- m32 (h.(3) + !d);
  h.(4) <- m32 (h.(4) + !e);
  h.(5) <- m32 (h.(5) + !f);
  h.(6) <- m32 (h.(6) + !g);
  h.(7) <- m32 (h.(7) + !hh)

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= 64 do
    Bytes.blit_string s !pos ctx.buf 0 64;
    compress ctx ctx.buf 0;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (stop - !pos);
    ctx.buf_len <- ctx.buf_len + (stop - !pos)
  end

(* Pad in place: 0x80, zeros up to 56 mod 64 (spilling into a second
   block when fewer than 9 bytes are left), then the 64-bit bit
   length. *)
let finalize_into ctx out off =
  if off < 0 || off > Bytes.length out - 32 then invalid_arg "Sha256.finalize_into";
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  Bytes.fill buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
  if ctx.buf_len >= 56 then begin
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end;
  let bitlen = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bitlen lsr ((7 - i) * 8)) land 0xff))
  done;
  compress ctx buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    let h = ctx.h.(i) and j = off + (i * 4) in
    Bytes.set out j (Char.unsafe_chr ((h lsr 24) land 0xff));
    Bytes.set out (j + 1) (Char.unsafe_chr ((h lsr 16) land 0xff));
    Bytes.set out (j + 2) (Char.unsafe_chr ((h lsr 8) land 0xff));
    Bytes.set out (j + 3) (Char.unsafe_chr (h land 0xff))
  done

let digest msg =
  let ctx = init () in
  update_sub ctx msg 0 (String.length msg);
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out
