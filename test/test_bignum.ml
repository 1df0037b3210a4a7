(* Unit and property tests for the bignum substrate. *)

module Nat = Bignum.Nat
module Modarith = Bignum.Modarith
module Prime = Bignum.Prime

(* Decimal text, for readable vectors and failure messages. *)
let of_decimal s =
  String.fold_left
    (fun n c -> Nat.add (Nat.mul n (Nat.of_int 10)) (Nat.of_int (Char.code c - Char.code '0')))
    Nat.zero s

let rec to_decimal a =
  if Nat.is_zero a then "0"
  else
    let q, r = Nat.divmod a (Nat.of_int 10) in
    (if Nat.is_zero q then "" else to_decimal q) ^ string_of_int (Nat.to_int r)

let nat = Alcotest.testable (fun fmt a -> Format.pp_print_string fmt (to_decimal a)) Nat.equal

(* Euclid over [Nat], the oracle for when a modular inverse exists. *)
let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

(* A deterministic xorshift-based rand_bits good enough for tests. *)
let test_rand =
  let state = ref 0x1e3779b97f4a7c15 in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int
  in
  fun bits ->
    let rec build acc have =
      if have >= bits then Nat.rem acc (Nat.shift_left Nat.one bits)
      else build (Nat.add (Nat.shift_left acc 30) (Nat.of_int (next () land 0x3fffffff))) (have + 30)
    in
    build Nat.zero 0

let gen_small = QCheck.Gen.int_bound ((1 lsl 30) - 1)

let arb_pair = QCheck.make QCheck.Gen.(pair gen_small gen_small)
let arb_triple = QCheck.make QCheck.Gen.(triple gen_small gen_small gen_small)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 26) - 1; (1 lsl 52) + 12345; max_int ]

let test_add_sub () =
  let a = Nat.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = Nat.of_hex "1" in
  let s = Nat.add a b in
  Alcotest.(check string) "carry chain" "100000000000000000000000000000000" (Nat.to_hex s);
  Alcotest.check nat "sub inverts add" a (Nat.sub s b);
  Alcotest.check nat "a - a = 0" Nat.zero (Nat.sub a a);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul () =
  let a = of_decimal "123456789012345678901234567890" in
  let b = of_decimal "987654321098765432109876543210" in
  Alcotest.(check string) "big product"
    "121932631137021795226185032733622923332237463801111263526900"
    (to_decimal (Nat.mul a b));
  Alcotest.check nat "mul zero" Nat.zero (Nat.mul a Nat.zero);
  Alcotest.check nat "mul one" a (Nat.mul a Nat.one)

let test_divmod () =
  let a = of_decimal "121932631137021795226185032733622923332237463801111263526900" in
  let b = of_decimal "987654321098765432109876543210" in
  let q, r = Nat.divmod a b in
  Alcotest.(check string) "quotient" "123456789012345678901234567890" (to_decimal q);
  Alcotest.check nat "remainder" Nat.zero r;
  let q2, r2 = Nat.divmod (Nat.succ a) b in
  Alcotest.check nat "quotient+1 rem" Nat.one r2;
  Alcotest.check nat "same quotient" q q2;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Nat.divmod a Nat.zero))

let test_shift () =
  let a = Nat.of_hex "deadbeefcafebabe" in
  Alcotest.(check string) "shl 4" "deadbeefcafebabe0" (Nat.to_hex (Nat.shift_left a 4));
  Alcotest.(check string) "shr 8" "deadbeefcafeba" (Nat.to_hex (Nat.shift_right a 8));
  Alcotest.check nat "shl then shr" a (Nat.shift_right (Nat.shift_left a 100) 100);
  Alcotest.check nat "shr to zero" Nat.zero (Nat.shift_right a 64)

let test_bytes_roundtrip () =
  let s = "\x01\x02\x03\xff\x00\xab" in
  let n = Nat.of_bytes_be s in
  Alcotest.(check string) "to_bytes" s (Nat.to_bytes_be n);
  Alcotest.(check string) "hex" "10203ff00ab" (Nat.to_hex n);
  Alcotest.(check string) "zero bytes" "\x00" (Nat.to_bytes_be Nat.zero)

let test_num_bits () =
  Alcotest.(check int) "zero" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "one" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "255" 8 (Nat.num_bits (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.num_bits (Nat.of_int 256));
  Alcotest.(check int) "2^100" 101 (Nat.num_bits (Nat.shift_left Nat.one 100))

(* The decimal helpers above carry every big vector in this file, so
   they are pinned against [Nat]'s own shifts. *)
let test_decimal_roundtrip () =
  let s = "340282366920938463463374607431768211456" in
  Alcotest.(check string) "decimal" s (to_decimal (of_decimal s));
  Alcotest.check nat "2^128" (Nat.shift_left Nat.one 128) (of_decimal s);
  Alcotest.(check string) "zero" "0" (to_decimal (of_decimal "0"))

let test_modexp () =
  (* 2^10 mod 1000 = 24 *)
  let r = Modarith.pow ~m:(Nat.of_int 1000) Nat.two (Nat.of_int 10) in
  Alcotest.check nat "2^10 mod 1000" (Nat.of_int 24) r;
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = Nat.of_int 1000003 in
  let a = Nat.of_int 123456 in
  Alcotest.check nat "fermat" Nat.one (Modarith.pow ~m:p a (Nat.pred p));
  Alcotest.check nat "pow zero" Nat.one (Modarith.pow ~m:p a Nat.zero)

let test_modinv () =
  let p = Nat.of_int 1000003 in
  let a = Nat.of_int 987654 in
  let inv = Modarith.inv ~m:p a in
  Alcotest.check nat "a * inv(a) = 1" Nat.one (Modarith.mul ~m:p a inv);
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (Modarith.inv ~m:(Nat.of_int 12) (Nat.of_int 8)))

(* Exhaustively over small moduli: [Modarith.inv] answers exactly when
   the operands are coprime, and its answer is the reduced inverse. *)
let test_gcd () =
  Alcotest.check nat "gcd(12,8)" (Nat.of_int 4) (gcd (Nat.of_int 12) (Nat.of_int 8));
  Alcotest.check nat "gcd(n,0)" (Nat.of_int 7) (gcd (Nat.of_int 7) Nat.zero);
  for m = 2 to 60 do
    let mn = Nat.of_int m in
    for a = 0 to m - 1 do
      let an = Nat.of_int a in
      let coprime = Nat.equal Nat.one (gcd mn an) in
      match Modarith.inv ~m:mn an with
      | x ->
        if not (coprime && Nat.compare x mn < 0 && Nat.equal Nat.one (Modarith.mul ~m:mn an x))
        then Alcotest.failf "inv %d mod %d: wrong answer" a m
      | exception Not_found ->
        if coprime then Alcotest.failf "inv %d mod %d: coprime but no inverse" a m
    done
  done

let test_primality () =
  let is_p n = Prime.is_probably_prime ~rand_bits:test_rand (Nat.of_int n) in
  List.iter (fun p -> Alcotest.(check bool) (Printf.sprintf "%d prime" p) true (is_p p))
    [ 2; 3; 5; 7; 97; 1009; 104729; 1000003 ];
  List.iter (fun c -> Alcotest.(check bool) (Printf.sprintf "%d composite" c) false (is_p c))
    [ 0; 1; 4; 100; 1001; 104730; 561; 41041; 825265 ] (* incl. Carmichael numbers *)

let test_gen_prime () =
  let p = Prime.gen_prime ~bits:64 ~rand_bits:test_rand in
  Alcotest.(check int) "64 bits" 64 (Nat.num_bits p);
  Alcotest.(check bool) "prime" true (Prime.is_probably_prime ~rand_bits:test_rand p);
  Alcotest.(check bool) "odd" true (Nat.is_odd p)

(* --- reference implementations -------------------------------------- *)

(* The square-and-multiply [Modarith.pow] used before the Montgomery
   path, kept as the reference the fast paths must match. *)
let pow_ref ~m b e =
  if Nat.equal m Nat.one then Nat.zero
  else begin
    let b = Nat.rem b m in
    let result = ref Nat.one in
    for i = Nat.num_bits e - 1 downto 0 do
      result := Modarith.mul ~m !result !result;
      if Nat.bit e i then result := Modarith.mul ~m !result b
    done;
    !result
  end

(* The byte-at-a-time codecs used before the limb-packing ones. *)
let of_bytes_ref s =
  let n = ref Nat.zero in
  String.iter (fun c -> n := Nat.add (Nat.shift_left !n 8) (Nat.of_int (Char.code c))) s;
  !n

let to_bytes_ref a =
  let out_len = max ((Nat.num_bits a + 7) / 8) 1 in
  let b = Bytes.make out_len '\000' in
  let v = ref a and i = ref (out_len - 1) in
  while not (Nat.is_zero !v) && !i >= 0 do
    let q, r = Nat.divmod !v (Nat.of_int 256) in
    Bytes.set b !i (Char.chr (Nat.to_int r));
    v := q;
    decr i
  done;
  Bytes.to_string b

let of_hex_ref s =
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty";
  let digit c = match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: bad digit"
  in
  let n = ref Nat.zero in
  String.iter (fun c -> n := Nat.add (Nat.shift_left !n 4) (Nat.of_int (digit c))) s;
  !n

let to_hex_ref a =
  if Nat.is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if not (Nat.is_zero v) then begin
        let q, r = Nat.divmod v (Nat.of_int 16) in
        go q;
        Buffer.add_char buf "0123456789abcdef".[Nat.to_int r]
      end
    in
    go a;
    Buffer.contents buf
  end

let outcome f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

(* --- generators ------------------------------------------------------ *)

let all_ones bits = Nat.pred (Nat.shift_left Nat.one bits)

(* A uniformly random value of at most [bits] bits. *)
let gen_nat bits =
  QCheck.Gen.map
    (fun s -> Nat.shift_right (Nat.of_bytes_be s) ((8 * String.length s) - bits))
    (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.return ((bits + 7) / 8)))

let gen_modulus =
  let open QCheck.Gen in
  let odd n = Nat.logor n Nat.one and even n = Nat.shift_left n 1 in
  let limb_power k = Nat.shift_left Nat.one (26 * k) in
  frequency
    [
      (4, map odd (int_range 30 600 >>= gen_nat) |> map (fun m -> if Nat.num_bits m > 26 then m else odd (Nat.shift_left m 40)));
      (1, map (fun n -> odd (Nat.of_int (n lor 2))) (int_bound ((1 lsl 26) - 1)));
      (2, map even (int_range 2 520 >>= gen_nat) |> map (fun m -> if Nat.is_zero m then Nat.two else m));
      (1, return Nat.one);
      (1, map (fun k -> all_ones (26 * k)) (int_range 1 20));
      (1, map (fun k -> Nat.succ (limb_power k)) (int_range 1 20));
      (1, map (fun k -> Nat.pred (limb_power k)) (int_range 1 20));
    ]

let gen_exponent =
  let open QCheck.Gen in
  oneof
    [
      return Nat.zero; return Nat.one; return (all_ones 160); return (all_ones 512);
      gen_nat 160; gen_nat 512; map Nat.of_int (int_bound 1000);
    ]

let gen_base m =
  let open QCheck.Gen in
  oneof
    [
      return Nat.zero;
      return (Nat.pred m);
      map (fun r -> Nat.add m r) (gen_nat 64);
      map (fun r -> Nat.rem r m) (gen_nat (Nat.num_bits m + 8));
    ]

let arb_pow =
  QCheck.make
    ~print:(fun (m, b, e) -> Printf.sprintf "m=%s b=%s e=%s" (Nat.to_hex m) (Nat.to_hex b) (Nat.to_hex e))
    QCheck.Gen.(gen_modulus >>= fun m -> triple (return m) (gen_base m) gen_exponent)

let prop_pow_ref =
  QCheck.Test.make ~name:"pow = square-and-multiply reference" ~count:150 arb_pow (fun (m, b, e) ->
      Nat.equal (Modarith.pow ~m b e) (pow_ref ~m b e))

let test_pow_edges () =
  List.iter
    (fun (name, m) ->
      let b = Nat.add m (Nat.of_int 12345) in
      List.iter
        (fun e ->
          Alcotest.check nat (name ^ " b>=m") (pow_ref ~m b e) (Modarith.pow ~m b e);
          Alcotest.check nat (name ^ " b=m-1") (pow_ref ~m (Nat.pred m) e) (Modarith.pow ~m (Nat.pred m) e);
          Alcotest.check nat (name ^ " b=0") (pow_ref ~m Nat.zero e) (Modarith.pow ~m Nat.zero e))
        [ Nat.zero; Nat.one; all_ones 160; all_ones 512 ])
    [
      ("m=1", Nat.one);
      ("m=3", Nat.of_int 3);
      ("m=2^52-1", all_ones 52);
      ("m=2^520-1", all_ones 520);
      ("m=2^52+1", Nat.succ (Nat.shift_left Nat.one 52));
      ("m=2^78+1", Nat.succ (Nat.shift_left Nat.one 78));
      ("even m=2^100", Nat.shift_left Nat.one 100);
    ];
  Alcotest.check nat "m=1, e=0" Nat.zero (Modarith.pow ~m:Nat.one Nat.two Nat.zero);
  Alcotest.check_raises "even modulus" (Invalid_argument "Mont.create: modulus must be odd, > 1 and at most 256 limbs")
    (fun () -> ignore (Bignum.Mont.create (Nat.shift_left Nat.one 100)))

(* The fixed-base table for g against plain exponentiation, over
   every digit boundary up to q and past it (the fallback), for the
   default group and for the same group decoded off the wire. *)
let test_g_table () =
  let params = Dcrypto.Dsa.default_params () in
  let { Dcrypto.Dsa.p; q; g } = params in
  let wire =
    let key = { Dcrypto.Dsa.params; y = g } in
    (Dcrypto.Dsa.pub_decode (Dcrypto.Dsa.pub_encode key)).Dcrypto.Dsa.params
  in
  let exps =
    [ Nat.zero; Nat.one; Nat.of_int 15; Nat.of_int 16; Nat.of_int 0xffff; Nat.pred q; q;
      all_ones 160; Nat.shift_left Nat.one 159; all_ones 161; Nat.shift_left q 40 ]
    @ List.init 16 (fun i -> Nat.rem (test_rand 200) (if i < 12 then q else p))
  in
  List.iter
    (fun e ->
      let want = pow_ref ~m:p g e in
      Alcotest.check nat ("g^" ^ Nat.to_hex e) want (Dcrypto.Dsa.pow_g params e);
      Alcotest.check nat ("wire g^" ^ Nat.to_hex e) want (Dcrypto.Dsa.pow_g wire e))
    exps;
  (* A group whose p is even cannot use Montgomery: the general path. *)
  let even_p = { params with Dcrypto.Dsa.p = Nat.shift_left p 1 } in
  Alcotest.check nat "even p" (pow_ref ~m:even_p.Dcrypto.Dsa.p g q) (Dcrypto.Dsa.pow_g even_p q)

let test_codec_edges () =
  Alcotest.(check string) "zero hex" "0" (Nat.to_hex Nat.zero);
  Alcotest.(check string) "zero bytes" "\000" (Nat.to_bytes_be Nat.zero);
  Alcotest.check nat "empty bytes" Nat.zero (Nat.of_bytes_be "");
  Alcotest.check nat "zero byte" Nat.zero (Nat.of_bytes_be "\000");
  Alcotest.check nat "hex 0" Nat.zero (Nat.of_hex "0");
  Alcotest.check nat "hex 000" Nat.zero (Nat.of_hex "000");
  Alcotest.check_raises "empty hex" (Invalid_argument "Nat.of_hex: empty") (fun () ->
      ignore (Nat.of_hex ""));
  Alcotest.check_raises "bad hex" (Invalid_argument "Nat.of_hex: bad digit") (fun () ->
      ignore (Nat.of_hex "12g4"));
  Alcotest.check_raises "bad limb" (Invalid_argument "Nat.of_limbs: limb out of range") (fun () ->
      ignore (Nat.of_limbs [| 1 lsl 26 |]))

let prop_bytes_codec =
  QCheck.Test.make ~name:"byte codecs = byte-at-a-time reference" ~count:300
    QCheck.(string_gen_of_size Gen.(int_range 0 80) Gen.(frequency [ (1, return '\000'); (3, char) ]))
    (fun s ->
      let n = Nat.of_bytes_be s in
      Nat.equal n (of_bytes_ref s) && Nat.to_bytes_be n = to_bytes_ref n)

let prop_hex_codec =
  QCheck.Test.make ~name:"hex codecs = nibble-at-a-time reference" ~count:300
    QCheck.(string_gen_of_size Gen.(int_range 0 140) Gen.(oneofl [ '0'; '0'; '1'; '9'; 'a'; 'F'; 'c'; 'x' ]))
    (fun s ->
      match (outcome (fun () -> Nat.of_hex s), outcome (fun () -> of_hex_ref s)) with
      | Ok n, Ok r -> Nat.equal n r && Nat.to_hex n = to_hex_ref n
      | Error a, Error b -> a = b
      | _ -> false)

let prop_inv_multi_limb =
  QCheck.Test.make ~name:"modular inverse (multi-limb, any parity)" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 30 300 >>= gen_nat) (int_range 1 300 >>= gen_nat)))
    (fun (m, a) ->
      let m = Nat.add m Nat.two in
      match Modarith.inv ~m a with
      | x -> Nat.compare x m < 0 && Nat.equal Nat.one (Modarith.mul ~m a x)
      | exception Not_found -> not (Nat.equal (gcd m (Nat.rem a m)) Nat.one))

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200 arb_pair (fun (a, b) ->
      Nat.equal (Nat.add (Nat.of_int a) (Nat.of_int b)) (Nat.add (Nat.of_int b) (Nat.of_int a)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int" ~count:200 arb_pair (fun (a, b) ->
      Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_bound 0xffff) (int_bound 0xffff)))
    (fun (a, b) -> Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r with r < b" ~count:500 arb_pair (fun (a, b) ->
      let b = b + 1 in
      let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
      Nat.to_int q = a / b && Nat.to_int r = a mod b)

let prop_divmod_big =
  (* Exercise the multi-limb Knuth path: build large numbers from triples. *)
  QCheck.Test.make ~name:"divmod identity (multi-limb)" ~count:300 arb_triple
    (fun (a, b, c) ->
      let big =
        Nat.add (Nat.mul (Nat.of_int a) (Nat.shift_left Nat.one 80))
          (Nat.add (Nat.mul (Nat.of_int b) (Nat.shift_left Nat.one 40)) (Nat.of_int c))
      in
      let d = Nat.add (Nat.mul (Nat.of_int (b + 2)) (Nat.shift_left Nat.one 30)) (Nat.of_int a) in
      let q, r = Nat.divmod big d in
      Nat.compare r d < 0 && Nat.equal big (Nat.add (Nat.mul q d) r))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(string_size (int_range 1 40)))
    (fun s ->
      let n = Nat.of_bytes_be s in
      (* Leading zeros are not representable; compare via re-parse. *)
      Nat.equal n (Nat.of_bytes_be (Nat.to_bytes_be n)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 arb_pair (fun (a, b) ->
      let n = Nat.mul (Nat.of_int a) (Nat.of_int (b + 1)) in
      Nat.equal n (Nat.of_hex (Nat.to_hex n)))

let prop_modinv =
  QCheck.Test.make ~name:"modular inverse" ~count:200 arb_pair (fun (a, _) ->
      let p = Nat.of_int 1073741789 (* prime *) in
      let a = Nat.of_int (a mod 1073741788 + 1) in
      Nat.equal Nat.one (Modarith.mul ~m:p a (Modarith.inv ~m:p a)))

let prop_pow_mul =
  QCheck.Test.make ~name:"b^(e1+e2) = b^e1 * b^e2 (mod m)" ~count:100 arb_triple
    (fun (b, e1, e2) ->
      let m = Nat.of_int 999999937 in
      let b = Nat.of_int b and e1 = Nat.of_int (e1 land 0xffff) and e2 = Nat.of_int (e2 land 0xffff) in
      Nat.equal
        (Modarith.pow ~m b (Nat.add e1 e2))
        (Modarith.mul ~m (Modarith.pow ~m b e1) (Modarith.pow ~m b e2)))

let suite =
  [
    Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "shifts" `Quick test_shift;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "num_bits" `Quick test_num_bits;
    Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
    Alcotest.test_case "modexp" `Quick test_modexp;
    Alcotest.test_case "modinv" `Quick test_modinv;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "primality" `Quick test_primality;
    Alcotest.test_case "gen_prime" `Slow test_gen_prime;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_identity;
    QCheck_alcotest.to_alcotest prop_divmod_big;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_modinv;
    QCheck_alcotest.to_alcotest prop_pow_mul;
    Alcotest.test_case "pow edge moduli" `Quick test_pow_edges;
    Alcotest.test_case "g table = plain pow" `Quick test_g_table;
    Alcotest.test_case "codec edge cases" `Quick test_codec_edges;
    QCheck_alcotest.to_alcotest prop_pow_ref;
    QCheck_alcotest.to_alcotest prop_bytes_codec;
    QCheck_alcotest.to_alcotest prop_hex_codec;
    QCheck_alcotest.to_alcotest prop_inv_multi_limb;
  ]
