(* One keystream core serves every entry point. The 16 state words
   live in local mutable variables (refs the compiler keeps in
   registers or on the stack), key and nonce words are read once per
   call, and the keystream is XORed 8 bytes at a time; only the final
   partial block goes byte by byte. Nothing is allocated per block. *)

let key_size = 32
let nonce_size = 12
let mask32 = 0xffffffff

let word_le s off = Int32.to_int (String.get_int32_le s off) land mask32

(* XOR the 8 keystream bytes whose little-endian words are [lo] and
   [hi] into [dst.[off ..]] from [src.[soff ..]] — all 8 when [n >= 8],
   else the first [n] (none when [n <= 0]). *)
let xor_lane src soff dst off n lo hi =
  if n >= 8 then
    Bytes.set_int64_le dst off
      (Int64.logxor (Bytes.get_int64_le src soff)
         (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)))
  else
    for k = 0 to n - 1 do
      let ks = if k < 4 then lo lsr (8 * k) else hi lsr (8 * (k - 4)) in
      Bytes.set dst (off + k)
        (Char.unsafe_chr ((Char.code (Bytes.get src (soff + k)) lxor ks) land 0xff))
    done

let check_key_nonce ~key ~nonce =
  if String.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes"

(* [dst.[off .. off+len)] <- [src.[src_off ..]] XOR keystream, starting
   at block [counter] (mod 2^32, as RFC 8439's 32-bit counter wraps).
   [src] may be [dst] at the same offset: each lane is read before it
   is written. *)
let core ~key ~nonce ~counter src ~src_off dst ~off ~len =
  let k0 = word_le key 0 and k1 = word_le key 4 and k2 = word_le key 8 in
  let k3 = word_le key 12 and k4 = word_le key 16 and k5 = word_le key 20 in
  let k6 = word_le key 24 and k7 = word_le key 28 in
  let n0 = word_le nonce 0 and n1 = word_le nonce 4 and n2 = word_le nonce 8 in
  let c0 = 0x61707865 and c1 = 0x3320646e and c2 = 0x79622d32 and c3 = 0x6b206574 in
  for b = 0 to ((len + 63) / 64) - 1 do
    let ctr = (counter + b) land mask32 in
    let x0 = ref c0 and x1 = ref c1 and x2 = ref c2 and x3 = ref c3 in
    let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
    let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
    let x12 = ref ctr and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
    for _ = 1 to 10 do
      (* Each line is one quarter-round step: a += b; d ^= a; d <<<= r,
         with the rotate masking the result back to 32 bits. *)
      (* column round: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15) *)
      x0 := (!x0 + !x4) land mask32;
      (let v = !x12 lxor !x0 in x12 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x8 := (!x8 + !x12) land mask32;
      (let v = !x4 lxor !x8 in x4 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x0 := (!x0 + !x4) land mask32;
      (let v = !x12 lxor !x0 in x12 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x8 := (!x8 + !x12) land mask32;
      (let v = !x4 lxor !x8 in x4 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x1 := (!x1 + !x5) land mask32;
      (let v = !x13 lxor !x1 in x13 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x9 := (!x9 + !x13) land mask32;
      (let v = !x5 lxor !x9 in x5 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x1 := (!x1 + !x5) land mask32;
      (let v = !x13 lxor !x1 in x13 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x9 := (!x9 + !x13) land mask32;
      (let v = !x5 lxor !x9 in x5 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x2 := (!x2 + !x6) land mask32;
      (let v = !x14 lxor !x2 in x14 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x10 := (!x10 + !x14) land mask32;
      (let v = !x6 lxor !x10 in x6 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x2 := (!x2 + !x6) land mask32;
      (let v = !x14 lxor !x2 in x14 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x10 := (!x10 + !x14) land mask32;
      (let v = !x6 lxor !x10 in x6 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x3 := (!x3 + !x7) land mask32;
      (let v = !x15 lxor !x3 in x15 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x11 := (!x11 + !x15) land mask32;
      (let v = !x7 lxor !x11 in x7 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x3 := (!x3 + !x7) land mask32;
      (let v = !x15 lxor !x3 in x15 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x11 := (!x11 + !x15) land mask32;
      (let v = !x7 lxor !x11 in x7 := ((v lsl 7) lor (v lsr 25)) land mask32);
      (* diagonal round: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14) *)
      x0 := (!x0 + !x5) land mask32;
      (let v = !x15 lxor !x0 in x15 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x10 := (!x10 + !x15) land mask32;
      (let v = !x5 lxor !x10 in x5 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x0 := (!x0 + !x5) land mask32;
      (let v = !x15 lxor !x0 in x15 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x10 := (!x10 + !x15) land mask32;
      (let v = !x5 lxor !x10 in x5 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x1 := (!x1 + !x6) land mask32;
      (let v = !x12 lxor !x1 in x12 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x11 := (!x11 + !x12) land mask32;
      (let v = !x6 lxor !x11 in x6 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x1 := (!x1 + !x6) land mask32;
      (let v = !x12 lxor !x1 in x12 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x11 := (!x11 + !x12) land mask32;
      (let v = !x6 lxor !x11 in x6 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x2 := (!x2 + !x7) land mask32;
      (let v = !x13 lxor !x2 in x13 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x8 := (!x8 + !x13) land mask32;
      (let v = !x7 lxor !x8 in x7 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x2 := (!x2 + !x7) land mask32;
      (let v = !x13 lxor !x2 in x13 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x8 := (!x8 + !x13) land mask32;
      (let v = !x7 lxor !x8 in x7 := ((v lsl 7) lor (v lsr 25)) land mask32);
      x3 := (!x3 + !x4) land mask32;
      (let v = !x14 lxor !x3 in x14 := ((v lsl 16) lor (v lsr 16)) land mask32);
      x9 := (!x9 + !x14) land mask32;
      (let v = !x4 lxor !x9 in x4 := ((v lsl 12) lor (v lsr 20)) land mask32);
      x3 := (!x3 + !x4) land mask32;
      (let v = !x14 lxor !x3 in x14 := ((v lsl 8) lor (v lsr 24)) land mask32);
      x9 := (!x9 + !x14) land mask32;
      (let v = !x4 lxor !x9 in x4 := ((v lsl 7) lor (v lsr 25)) land mask32)
    done;
    (* Feed-forward (state + input) and XOR, two words per lane. *)
    let pos = b * 64 in
    let rem = len - pos and s = src_off + pos and d = off + pos in
    let w x i = (x + i) land mask32 in
    xor_lane src s dst d rem (w !x0 c0) (w !x1 c1);
    xor_lane src (s + 8) dst (d + 8) (rem - 8) (w !x2 c2) (w !x3 c3);
    xor_lane src (s + 16) dst (d + 16) (rem - 16) (w !x4 k0) (w !x5 k1);
    xor_lane src (s + 24) dst (d + 24) (rem - 24) (w !x6 k2) (w !x7 k3);
    xor_lane src (s + 32) dst (d + 32) (rem - 32) (w !x8 k4) (w !x9 k5);
    xor_lane src (s + 40) dst (d + 40) (rem - 40) (w !x10 k6) (w !x11 k7);
    xor_lane src (s + 48) dst (d + 48) (rem - 48) (w !x12 ctr) (w !x13 n0);
    xor_lane src (s + 56) dst (d + 56) (rem - 56) (w !x14 n1) (w !x15 n2)
  done

let xor_from ~key ~nonce ?(counter = 1) src ~src_off dst ~off ~len =
  check_key_nonce ~key ~nonce;
  if off < 0 || len < 0 || off + len > Bytes.length dst || src_off < 0
     || src_off + len > String.length src
  then invalid_arg "Chacha20.xor_from: range out of bounds";
  (* Read-only view: the core never writes [src] unless it is [dst]. *)
  core ~key ~nonce ~counter (Bytes.unsafe_of_string src) ~src_off dst ~off ~len

let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
  check_key_nonce ~key ~nonce;
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Chacha20.xor_into: range out of bounds";
  core ~key ~nonce ~counter buf ~src_off:off buf ~off ~len

let crypt ~key ~nonce ?(counter = 1) data =
  let len = String.length data in
  let out = Bytes.create len in
  xor_from ~key ~nonce ~counter data ~src_off:0 out ~off:0 ~len;
  Bytes.unsafe_to_string out

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:64;
  Bytes.unsafe_to_string out
