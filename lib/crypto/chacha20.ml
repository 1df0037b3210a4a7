(* The keystream core is C (dcrypto_stubs.c): four blocks at a time
   in vector lanes, a scalar block for the tail. This side keeps every
   check — key and nonce sizes, ranges — so the [@@noalloc] stub can
   trust its arguments. *)

let key_size = 32
let nonce_size = 12

(* [xor_raw key nonce counter src src_off dst off len]:
   [dst.[off .. off+len)] <- [src.[src_off ..]] XOR keystream from
   block [counter] (mod 2^32, as RFC 8439's 32-bit counter wraps).
   [src] may be [dst] at the same offset. Unchecked. *)
external xor_raw : string -> string -> int -> string -> int -> Bytes.t -> int -> int -> unit
  = "dcrypto_chacha20_xor_byte" "dcrypto_chacha20_xor"
[@@noalloc]

let check_key_nonce ~key ~nonce =
  if String.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes"

let xor_from ~key ~nonce ?(counter = 1) src ~src_off dst ~off ~len =
  check_key_nonce ~key ~nonce;
  if off < 0 || len < 0 || off + len > Bytes.length dst || src_off < 0
     || src_off + len > String.length src
  then invalid_arg "Chacha20.xor_from: range out of bounds";
  xor_raw key nonce counter src src_off dst off len

let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
  check_key_nonce ~key ~nonce;
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Chacha20.xor_into: range out of bounds";
  (* Read-only view of [buf] for the source side of the same range. *)
  xor_raw key nonce counter (Bytes.unsafe_to_string buf) off buf off len

let crypt ~key ~nonce ?(counter = 1) data =
  let len = String.length data in
  let out = Bytes.create len in
  xor_from ~key ~nonce ~counter data ~src_off:0 out ~off:0 ~len;
  Bytes.unsafe_to_string out

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:64;
  Bytes.unsafe_to_string out
