module Nat = Bignum.Nat

(* K and V live in byte strings the generator owns, and every HMAC
   runs in its own state and writes its tag straight over K or V. *)
type t = { k : Bytes.t; v : Bytes.t; mac : Hmac.sha256_ctx }

(* A view of K or V for the hash to read; the write that follows
   reads nothing through it. *)
let view = Bytes.unsafe_to_string

(* V = HMAC(K, V) *)
let step_v t =
  Hmac.sha256_start t.mac ~key:(view t.k);
  Hmac.sha256_add t.mac (view t.v) 0 32;
  Hmac.sha256_finish_into t.mac t.v 0

(* K = HMAC(K, V || sep || provided); V = HMAC(K, V) *)
let rekey t sep provided =
  Hmac.sha256_start t.mac ~key:(view t.k);
  Hmac.sha256_add t.mac (view t.v) 0 32;
  Hmac.sha256_add t.mac sep 0 1;
  Hmac.sha256_add t.mac provided 0 (String.length provided);
  Hmac.sha256_finish_into t.mac t.k 0;
  step_v t

let update t provided =
  rekey t "\x00" provided;
  if provided <> "" then rekey t "\x01" provided

let create ~seed =
  let t = { k = Bytes.make 32 '\000'; v = Bytes.make 32 '\001'; mac = Hmac.sha256_ctx () } in
  update t seed;
  t

let bytes t n =
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    step_v t;
    let take = min 32 (n - !pos) in
    Bytes.blit t.v 0 out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

let rand_bits t bits =
  if bits <= 0 then Nat.zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let raw = Nat.of_bytes_be (bytes t nbytes) in
    let excess = (nbytes * 8) - bits in
    Nat.shift_right raw excess
  end

let nat_below t n =
  if Nat.is_zero n then invalid_arg "Drbg.nat_below: zero bound";
  let bits = Nat.num_bits n in
  let rec loop () =
    let candidate = rand_bits t bits in
    if Nat.compare candidate n < 0 then candidate else loop ()
  in
  loop ()

let int_below t n =
  if n <= 0 then invalid_arg "Drbg.int_below: non-positive bound";
  Nat.to_int (nat_below t (Nat.of_int n))

let fork t ~label =
  let seed = bytes t 32 ^ label in
  create ~seed
