(* Montgomery arithmetic (HAC §14.3) over 26-bit limbs.

   A residue x is held as the n-limb array of x*R mod m, R = 2^(26n),
   always fully reduced. A product goes through the context's 2n-limb
   scratch [t] in two passes that delay carries: the schoolbook product
   adds each 52-bit limb product into its column, then the reduction
   adds u*m at every column, where u makes the low limb vanish, and
   carries one limb up. Every column stays below (2n+1) * 2^52, which
   is under OCaml's 2^62 for n <= [max_limbs]. *)

let bits = Limbs.bits
let mask = Limbs.mask
let max_limbs = 256

type ctx = {
  modulus : Nat.t;
  m : int array;
  n : int;
  minv : int; (* -m^-1 mod 2^26 *)
  r2 : int array; (* R^2 mod m *)
  t : int array; (* 2n-limb product scratch *)
}

let applies (m : Nat.t) =
  let n = Array.length (m :> int array) in
  n > 1 && n <= max_limbs && Nat.is_odd m

let create (modulus : Nat.t) =
  let m = (modulus :> int array) in
  let n = Array.length m in
  if not (Nat.is_odd modulus && n <= max_limbs && Nat.compare modulus Nat.one > 0) then
    invalid_arg "Mont.create: modulus must be odd, > 1 and at most 256 limbs";
  (* Newton's iteration doubles the correct low bits of m^-1 each
     step: 1, 2, 4, ..., 32 >= 26. *)
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * ((2 - (m.(0) * !x)) land mask) land mask
  done;
  let r2 = Array.make n 0 in
  let r2_nat = (Nat.rem (Nat.shift_left Nat.one (2 * bits * n)) modulus :> int array) in
  Array.blit r2_nat 0 r2 0 (Array.length r2_nat);
  { modulus; m; n; minv = (- !x) land mask; r2; t = Array.make (2 * n) 0 }

(* dst <- t[0..2n) * R^-1 mod m. *)
let redc c dst =
  let n = c.n and t = c.t and m = c.m and minv = c.minv in
  for i = 0 to n - 1 do
    let ti = Array.unsafe_get t i in
    let u = (ti land mask) * minv land mask in
    if u <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        Array.unsafe_set t k (Array.unsafe_get t k + (u * Array.unsafe_get m j))
      done;
    t.(i + 1) <- t.(i + 1) + (Array.unsafe_get t i lsr bits)
  done;
  let carry = ref 0 in
  for k = 0 to n - 1 do
    let s = Array.unsafe_get t (n + k) + !carry in
    Array.unsafe_set dst k (s land mask);
    carry := s lsr bits
  done;
  (* The value is below 2m: subtract m once if it reached it. *)
  let geq =
    !carry <> 0
    ||
    let rec cmp k = k < 0 || (dst.(k) > m.(k) || (dst.(k) = m.(k) && cmp (k - 1))) in
    cmp (n - 1)
  in
  if geq then begin
    let borrow = ref 0 in
    for k = 0 to n - 1 do
      let d = Array.unsafe_get dst k - Array.unsafe_get m k - !borrow in
      Array.unsafe_set dst k (d land mask);
      borrow := if d < 0 then 1 else 0
    done
  end

(* [dst] may alias [a] or [b]: both are read into [t] before [redc]
   writes [dst]. *)
let mul c dst a b =
  let n = c.n and t = c.t in
  Array.fill t 0 (2 * n) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        Array.unsafe_set t k (Array.unsafe_get t k + (ai * Array.unsafe_get b j))
      done
  done;
  redc c dst

let sqr c dst a =
  let n = c.n and t = c.t in
  Array.fill t 0 (2 * n) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      t.(2 * i) <- t.(2 * i) + (ai * ai);
      let ai2 = ai lsl 1 in
      for j = i + 1 to n - 1 do
        let k = i + j in
        Array.unsafe_set t k (Array.unsafe_get t k + (ai2 * Array.unsafe_get a j))
      done
    end
  done;
  redc c dst

(* Montgomery form of [x mod m], in a fresh array. *)
let to_mont c (x : Nat.t) =
  let x = (Nat.rem x c.modulus :> int array) in
  let xm = Array.make c.n 0 in
  Array.blit x 0 xm 0 (Array.length x);
  mul c xm xm c.r2;
  xm

let of_mont c xm =
  Array.fill c.t 0 (2 * c.n) 0;
  Array.blit xm 0 c.t 0 c.n;
  let r = Array.make c.n 0 in
  redc c r;
  Nat.of_limbs r

let window = 4

(* Left-to-right sliding window (HAC 14.85) over the odd powers
   b^1, b^3, ..., b^(2^window - 1). *)
let pow c b e =
  let nbits = Nat.num_bits e in
  if nbits = 0 then Nat.one
  else begin
    let bm = to_mont c b in
    let b2 = Array.make c.n 0 in
    sqr c b2 bm;
    let odd = Array.make (1 lsl (window - 1)) bm in
    for k = 1 to Array.length odd - 1 do
      odd.(k) <- Array.make c.n 0;
      mul c odd.(k) odd.(k - 1) b2
    done;
    let acc = Array.make c.n 0 and started = ref false in
    let i = ref (nbits - 1) in
    while !i >= 0 do
      if not (Nat.bit e !i) then begin
        sqr c acc acc;
        decr i
      end
      else begin
        (* The longest window e[i..l] of at most [window] bits that
           ends in a one. *)
        let l = ref (max 0 (!i - window + 1)) in
        while not (Nat.bit e !l) do incr l done;
        let v = ref 0 in
        for k = !i downto !l do
          v := (!v lsl 1) lor (if Nat.bit e k then 1 else 0)
        done;
        if !started then begin
          for _ = !l to !i do sqr c acc acc done;
          mul c acc acc odd.(!v lsr 1)
        end
        else begin
          Array.blit odd.(!v lsr 1) 0 acc 0 c.n;
          started := true
        end;
        i := !l - 1
      end
    done;
    of_mont c acc
  end

(* Fixed-base windowing (HAC 14.109): with G_i = g^(16^i) precomputed
   and e = sum e_i 16^i, g^e = prod_{d=15..1} (prod_{e_i >= d} G_i),
   accumulated as B <- B * G_i for every e_i = d, then A <- A * B. *)
type fixed_base = { ctx : ctx; g : Nat.t; bits : int; powers : int array array }

let fixed_base c g ~bits =
  let digits = max 1 ((bits + window - 1) / window) in
  let powers = Array.make digits (to_mont c g) in
  for i = 1 to digits - 1 do
    let p = Array.copy powers.(i - 1) in
    for _ = 1 to window do sqr c p p done;
    powers.(i) <- p
  done;
  { ctx = c; g; bits = digits * window; powers }

let pow_fixed fb e =
  let nbits = Nat.num_bits e in
  if nbits > fb.bits then pow fb.ctx fb.g e
  else if nbits = 0 then Nat.one
  else begin
    let c = fb.ctx in
    let digits = (nbits + window - 1) / window in
    let digit i =
      let v = ref 0 in
      for k = (window * i) + window - 1 downto window * i do
        v := (!v lsl 1) lor (if Nat.bit e k then 1 else 0)
      done;
      !v
    in
    let e_digits = Array.init digits digit in
    let a = Array.make c.n 0 and b = Array.make c.n 0 in
    let a_one = ref true and b_one = ref true in
    for d = (1 lsl window) - 1 downto 1 do
      for i = 0 to digits - 1 do
        if e_digits.(i) = d then
          if !b_one then begin Array.blit fb.powers.(i) 0 b 0 c.n; b_one := false end
          else mul c b b fb.powers.(i)
      done;
      if not !b_one then
        if !a_one then begin Array.blit b 0 a 0 c.n; a_one := false end
        else mul c a a b
    done;
    of_mont c a
  end
