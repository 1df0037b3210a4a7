(* SHA-1 on native ints masked to 32 bits. The 63-bit int comfortably
   holds 32-bit words plus carries; [m32] truncates after each step. *)

let m32 x = x land 0xffffffff
let rotl32 x n = m32 ((x lsl n) lor (x lsr (32 - n)))

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* total bytes processed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xefcdab89;
    h2 = 0x98badcfe;
    h3 = 0x10325476;
    h4 = 0xc3d2e1f0;
    buf = Bytes.make 64 '\000';
    buf_len = 0;
    total = 0;
    w = Array.make 80 0;
  }

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
  for i = 16 to 79 do
    w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref ctx.h0 and b = ref ctx.h1 and c = ref ctx.h2 and d = ref ctx.h3 and e = ref ctx.h4 in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then (!b land !c) lor (lnot !b land !d) land 0xffffffff, 0x5a827999
      else if i < 40 then !b lxor !c lxor !d, 0x6ed9eba1
      else if i < 60 then (!b land !c) lor (!b land !d) lor (!c land !d), 0x8f1bbcdc
      else !b lxor !c lxor !d, 0xca62c1d6
    in
    let temp = m32 (rotl32 !a 5 + (m32 f) + !e + k + w.(i)) in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := temp
  done;
  ctx.h0 <- m32 (ctx.h0 + !a);
  ctx.h1 <- m32 (ctx.h1 + !b);
  ctx.h2 <- m32 (ctx.h2 + !c);
  ctx.h3 <- m32 (ctx.h3 + !d);
  ctx.h4 <- m32 (ctx.h4 + !e)

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill any partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    Bytes.blit_string s !pos ctx.buf 0 64;
    compress ctx ctx.buf 0;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end

let finalize ctx =
  let bitlen = ctx.total * 8 in
  let pad_len =
    let rem = (ctx.total + 1) mod 64 in
    if rem <= 56 then 56 - rem + 1 else 120 - rem + 1
  in
  let padding = Bytes.make (pad_len + 8) '\000' in
  Bytes.set padding 0 '\x80';
  for i = 0 to 7 do
    Bytes.set padding (pad_len + i) (Char.chr ((bitlen lsr ((7 - i) * 8)) land 0xff))
  done;
  update ctx (Bytes.to_string padding);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 20 in
  List.iteri
    (fun i h ->
      Bytes.set out (i * 4) (Char.chr ((h lsr 24) land 0xff));
      Bytes.set out ((i * 4) + 1) (Char.chr ((h lsr 16) land 0xff));
      Bytes.set out ((i * 4) + 2) (Char.chr ((h lsr 8) land 0xff));
      Bytes.set out ((i * 4) + 3) (Char.chr (h land 0xff)))
    [ ctx.h0; ctx.h1; ctx.h2; ctx.h3; ctx.h4 ];
  Bytes.to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let hex msg = Hexcodec.encode (digest msg)
