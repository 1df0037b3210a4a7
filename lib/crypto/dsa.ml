module Nat = Bignum.Nat
module Modarith = Bignum.Modarith
module Prime = Bignum.Prime
module Mont = Bignum.Mont

type params = { p : Nat.t; q : Nat.t; g : Nat.t }
type public = { params : params; y : Nat.t }
type private_key = { pub : public; x : Nat.t }
type signature = { r : Nat.t; s : Nat.t }

let qbits = 160

let generate_params ?(pbits = 512) drbg =
  let rand_bits bits = Drbg.rand_bits drbg bits in
  let q = Prime.gen_prime ~bits:qbits ~rand_bits in
  (* Search p = 2*k*q + 1 of the right size. *)
  let kbits = pbits - qbits - 1 in
  let two_q = Nat.shift_left q 1 in
  let rec find_p () =
    let k = Nat.logor (Drbg.rand_bits drbg kbits) (Nat.shift_left Nat.one (kbits - 1)) in
    let p = Nat.succ (Nat.mul two_q k) in
    if Nat.num_bits p = pbits && Prime.is_probably_prime ~rand_bits p then p else find_p ()
  in
  let p = find_p () in
  let e = Nat.div (Nat.pred p) q in
  let rec find_g h =
    let g = Modarith.pow ~m:p (Nat.of_int h) e in
    if Nat.equal g Nat.one then find_g (h + 1) else g
  in
  { p; q; g = find_g 2 }

(* [generate_params] run on Drbg seed "discfs-default-dsa-group-v1",
   committed so no process pays for the search; test_crypto regenerates
   it and checks these digits. *)
let default =
  {
    p =
      Nat.of_hex
        "acd0bcf48e5bf8072c8921a7e75eac1606d66e59cee62305781092bb0fd172a6\
         c4acbf277092d1b1d13e9363e91d158f69eb554fa4e621ca9dba4440dabcceff";
    q = Nat.of_hex "d74251d8487795f77b04e17554f67f57872e70e9";
    g =
      Nat.of_hex
        "4e2c428da42af560de9fca4dd0718a09dbc6b8180c73ba6007172229150dc167\
         67ccab6aa37a6dc8b1cfc831bd93f6d596fb6c9df69f3515a52cb5c69d2052d9";
  }

let default_params () = default

(* One Montgomery context and one fixed-base table, for the committed
   group every identity uses. Both are found by value, so parameters
   decoded off the wire share them; any other group, whatever its q,
   takes the general path and keeps nothing. *)
let default_ctx = lazy (Mont.create default.p)
let default_table = lazy (Mont.fixed_base (Lazy.force default_ctx) default.g ~bits:qbits)

let pow_g params e =
  if Nat.equal params.p default.p && Nat.equal params.g default.g then
    Mont.pow_fixed (Lazy.force default_table) e
  else Modarith.pow ~m:params.p params.g e

let pow_mod_p params b e =
  if Nat.equal params.p default.p then Mont.pow (Lazy.force default_ctx) b e
  else Modarith.pow ~m:params.p b e

let generate_key ?params drbg =
  let params = match params with Some p -> p | None -> default_params () in
  let x = Nat.succ (Drbg.nat_below drbg (Nat.pred params.q)) in
  let y = pow_g params x in
  { pub = { params; y }; x }

let hash_to_nat ~hash ~q msg =
  (* Leftmost min(|q|, digest bits) bits of the digest. *)
  let digest = hash msg in
  let h = Nat.of_bytes_be digest in
  let hbits = String.length digest * 8 in
  let qb = Nat.num_bits q in
  if qb >= hbits then h else Nat.shift_right h (hbits - qb)

let sign ?(hash = Sha1.digest) ~key drbg msg =
  let params = key.pub.params in
  let q = params.q in
  let z = hash_to_nat ~hash ~q msg in
  let rec attempt () =
    let k = Nat.succ (Drbg.nat_below drbg (Nat.pred q)) in
    let r = Nat.rem (pow_g params k) q in
    if Nat.is_zero r then attempt ()
    else begin
      let kinv = Modarith.inv ~m:q k in
      let s = Modarith.mul ~m:q kinv (Modarith.add ~m:q z (Modarith.mul ~m:q key.x r)) in
      if Nat.is_zero s then attempt () else { r; s }
    end
  in
  attempt ()

let verify ?(hash = Sha1.digest) ~key msg { r; s } =
  let { p; q; _ } = key.params in
  let in_range v = not (Nat.is_zero v) && Nat.compare v q < 0 in
  if not (in_range r && in_range s) then false
  else begin
    match Modarith.inv ~m:q s with
    | exception Not_found -> false
    | w ->
      let z = hash_to_nat ~hash ~q msg in
      let u1 = Modarith.mul ~m:q z w in
      let u2 = Modarith.mul ~m:q r w in
      let v =
        Nat.rem (Modarith.mul ~m:p (pow_g key.params u1) (pow_mod_p key.params key.y u2)) q
      in
      Nat.equal v r
  end

(* Wire form: length-prefixed (2-byte big-endian) components. *)

let put_component buf n =
  let s = Nat.to_bytes_be n in
  let len = String.length s in
  Buffer.add_char buf (Char.chr (len lsr 8));
  Buffer.add_char buf (Char.chr (len land 0xff));
  Buffer.add_string buf s

let get_component s pos =
  if !pos + 2 > String.length s then invalid_arg "Dsa: truncated component";
  let len = (Char.code s.[!pos] lsl 8) lor Char.code s.[!pos + 1] in
  pos := !pos + 2;
  if !pos + len > String.length s then invalid_arg "Dsa: truncated component";
  let v = Nat.of_bytes_be (String.sub s !pos len) in
  pos := !pos + len;
  v

let pub_encode pub =
  let buf = Buffer.create 256 in
  put_component buf pub.params.p;
  put_component buf pub.params.q;
  put_component buf pub.params.g;
  put_component buf pub.y;
  Buffer.contents buf

let pub_decode s =
  let pos = ref 0 in
  let p = get_component s pos in
  let q = get_component s pos in
  let g = get_component s pos in
  let y = get_component s pos in
  if !pos <> String.length s then invalid_arg "Dsa.pub_decode: trailing bytes";
  { params = { p; q; g }; y }

let priv_encode key =
  let buf = Buffer.create 320 in
  Buffer.add_string buf (pub_encode key.pub);
  put_component buf key.x;
  Buffer.contents buf

let priv_decode s =
  let pos = ref 0 in
  let p = get_component s pos in
  let q = get_component s pos in
  let g = get_component s pos in
  let y = get_component s pos in
  let x = get_component s pos in
  if !pos <> String.length s then invalid_arg "Dsa.priv_decode: trailing bytes";
  { pub = { params = { p; q; g }; y }; x }

let sig_encode { r; s } =
  let buf = Buffer.create 64 in
  put_component buf r;
  put_component buf s;
  Buffer.contents buf

let sig_decode str =
  let pos = ref 0 in
  let r = get_component str pos in
  let s = get_component str pos in
  if !pos <> String.length str then invalid_arg "Dsa.sig_decode: trailing bytes";
  { r; s }

let pub_equal a b =
  Nat.equal a.y b.y && Nat.equal a.params.p b.params.p && Nat.equal a.params.q b.params.q
  && Nat.equal a.params.g b.params.g

let fingerprint pub = Hexcodec.encode (String.sub (Sha1.digest (pub_encode pub)) 0 8)
