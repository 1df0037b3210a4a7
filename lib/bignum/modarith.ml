let add ~m a b = Nat.rem (Nat.add a b) m

let mul ~m a b = Nat.rem (Nat.mul a b) m

let pow ~m b e =
  if Mont.applies m then Mont.pow (Mont.create m) b e
  else if Nat.equal m Nat.one then Nat.zero
  else begin
    let b = Nat.rem b m in
    let result = ref Nat.one in
    let nbits = Nat.num_bits e in
    for i = nbits - 1 downto 0 do
      result := mul ~m !result !result;
      if Nat.bit e i then result := mul ~m !result b
    done;
    !result
  end

(* Extended Euclid on preallocated limb buffers. With r0 = m, r1 = a
   and coefficients x0 = 0, x1 = 1 (r_i = x_i * a mod m), the x_i
   alternate in sign, so x_(i+1) = x_(i-1) - q_i * x_i is the
   magnitude sum |x_(i-1)| + q_i * |x_i| and one flag tracks the sign.
   Every magnitude stays at most m, so each buffer has one limb more
   than m for Limbs.divrem's normalization carry. *)
let inv ~m a =
  let a = Nat.rem a m in
  if Nat.is_zero a then raise Not_found;
  let w = Array.length (m :> int array) + 1 in
  let buffer (x : Nat.t) =
    let b = Array.make w 0 in
    Array.blit (x :> int array) 0 b 0 (Array.length (x :> int array));
    b
  in
  let r0 = ref (buffer m) and r1 = ref (buffer a) in
  let x0 = ref (Array.make w 0) and x1 = ref (buffer Nat.one) and x1_neg = ref false in
  let q = Array.make w 0 in
  let swap r s = let t = !r in r := !s; s := t in
  let l1 = ref (Limbs.sig_len !r1 w) in
  while !l1 > 0 do
    let l0 = Limbs.sig_len !r0 w in
    Array.fill q 0 w 0;
    Limbs.divrem !r0 l0 !r1 !l1 q;
    Limbs.addmul !x0 q (Limbs.sig_len q w) !x1 (Limbs.sig_len !x1 w);
    swap r0 r1;
    swap x0 x1;
    x1_neg := not !x1_neg;
    l1 := Limbs.sig_len !r1 w
  done;
  if not (Limbs.sig_len !r0 w = 1 && !r0.(0) = 1) then raise Not_found;
  let x = Nat.rem (Nat.of_limbs !x0) m in
  (* x0's sign is the opposite of x1's. *)
  if (not !x1_neg) && not (Nat.is_zero x) then Nat.sub m x else x
