(* Little-endian limb arrays in base 2^26. The invariant maintained by
   every constructor is that the highest limb is nonzero, so [zero] is
   the empty array and structural equality coincides with numeric
   equality. *)

let limb_bits = Limbs.bits
let limb_base = 1 lsl limb_bits
let limb_mask = Limbs.mask

type t = int array

let zero : t = [||]
let is_zero n = Array.length n = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_limbs (a : int array) : t =
  Array.iter (fun l -> if l < 0 || l > limb_mask then invalid_arg "Nat.of_limbs: limb out of range") a;
  normalize a

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs acc n = if n = 0 then acc else limbs (n land limb_mask :: acc) (n lsr limb_bits) in
    let l = List.rev (limbs [] n) in
    Array.of_list l
  end

let one = of_int 1
let two = of_int 2

let to_int n =
  let len = Array.length n in
  if len * limb_bits > 62 && len > 3 then failwith "Nat.to_int: overflow";
  let v = ref 0 in
  for i = len - 1 downto 0 do
    if !v > max_int lsr limb_bits then failwith "Nat.to_int: overflow";
    v := (!v lsl limb_bits) lor n.(i)
  done;
  !v

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + limb_base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land limb_mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    (la - 1) * limb_bits + width top 0
  end

let logop op (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = max la lb in
  let r = Array.make lr 0 in
  for i = 0 to lr - 1 do
    r.(i) <- op (if i < la then a.(i) else 0) (if i < lb then b.(i) else 0)
  done;
  normalize r

let logor = logop ( lor )

let succ a = add a one
let pred a = sub a one

let is_even a = Array.length a = 0 || a.(0) land 1 = 0
let is_odd a = not (is_even a)

(* Division: Knuth's Algorithm D on a scratch copy of the operands
   (Limbs.divrem normalizes the divisor in place). Single-limb
   divisors take a short-division fast path. *)

let divmod_small (a : t) (b : int) : t * int =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / b;
    r := cur mod b
  done;
  (normalize q, !r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else begin
    let la = Array.length a and lb = Array.length b in
    let u = Array.make (la + 1) 0 in
    Array.blit a 0 u 0 la;
    let q = Array.make (la - lb + 1) 0 in
    Limbs.divrem u la (Array.copy b) lb q;
    (normalize q, normalize (Array.sub u 0 lb))
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* The codecs below move whole bytes or nibbles between a string and
   the limbs: [w]-bit digit [k] (least significant first) sits at bit
   [w * k], possibly straddling two limbs. *)

let digit (a : t) ~w k =
  let pos = w * k in
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let lo = a.(limb) lsr off in
  let hi = if off + w > limb_bits && limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off) else 0 in
  (lo lor hi) land ((1 lsl w) - 1)

(* Packs the [w]-bit digits [get i] for [i] in [first, last], most
   significant first, into a normalized value. *)
let of_digits ~w ~first ~last get : t =
  let r = Array.make (((last - first + 1) * w + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and k = ref 0 in
  for i = last downto first do
    acc := !acc lor (get i lsl !nbits);
    nbits := !nbits + w;
    if !nbits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      incr k;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits
    end
  done;
  if !nbits > 0 then r.(!k) <- !acc;
  normalize r

let of_bytes_be (s : string) : t =
  let first = ref 0 in
  while !first < String.length s && s.[!first] = '\000' do incr first done;
  of_digits ~w:8 ~first:!first ~last:(String.length s - 1) (fun i -> Char.code s.[i])

let to_bytes_be (a : t) : string =
  let nbytes = (num_bits a + 7) / 8 in
  let out_len = max nbytes 1 in
  let b = Bytes.make out_len '\000' in
  for k = 0 to nbytes - 1 do
    Bytes.set b (out_len - 1 - k) (Char.chr (digit a ~w:8 k))
  done;
  Bytes.to_string b

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex (s : string) : t =
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty";
  of_digits ~w:4 ~first:0 ~last:(String.length s - 1) (fun i -> hex_digit s.[i])

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let n = (num_bits a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[digit a ~w:4 (n - 1 - i)])
  end
