(* In-place kernels over fixed-width limb buffers: little-endian int
   arrays of 26-bit limbs that may carry high zero limbs, with their
   significant lengths passed explicitly. Callers own every buffer. *)

let bits = 26
let mask = (1 lsl bits) - 1

let sig_len a n =
  let k = ref n in
  while !k > 0 && a.(!k - 1) = 0 do decr k done;
  !k

let width x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let shift_left a n s =
  if s = 0 then 0
  else begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let x = (a.(i) lsl s) lor !carry in
      a.(i) <- x land mask;
      carry := x lsr bits
    done;
    !carry
  end

let shift_right a n s =
  if s > 0 then begin
    let low = (1 lsl s) - 1 and from_above = ref 0 in
    for i = n - 1 downto 0 do
      let x = a.(i) in
      a.(i) <- (x lsr s) lor (!from_above lsl (bits - s));
      from_above := x land low
    done
  end

(* Knuth's Algorithm D (TAOCP 4.3.1). The divisor is normalized in
   place so its top limb has its high bit set, and shifted back before
   returning. *)
let divrem u ul v vl q =
  if vl = 1 then begin
    let d = v.(0) and r = ref 0 in
    for i = ul - 1 downto 0 do
      let cur = (!r lsl bits) lor u.(i) in
      q.(i) <- cur / d;
      r := cur mod d;
      u.(i) <- 0
    done;
    u.(0) <- !r
  end
  else begin
    let base = 1 lsl bits in
    let s = bits - width v.(vl - 1) in
    ignore (shift_left v vl s);
    u.(ul) <- shift_left u ul s;
    let vtop = v.(vl - 1) and vsec = v.(vl - 2) in
    for j = ul - vl downto 0 do
      (* Estimate q_hat from the top two limbs of the current remainder. *)
      let top2 = (u.(j + vl) lsl bits) lor u.(j + vl - 1) in
      let qhat = ref (top2 / vtop) and rhat = ref (top2 mod vtop) in
      if !qhat >= base then begin qhat := base - 1; rhat := top2 - !qhat * vtop end;
      let continue = ref true in
      while !continue && !rhat < base && !qhat * vsec > (!rhat lsl bits) lor u.(j + vl - 2) do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue := false
      done;
      (* Multiply and subtract: u[j..j+vl] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to vl - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
        else begin u.(i + j) <- d; borrow := 0 end
      done;
      let d = u.(j + vl) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + vl) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to vl - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land mask;
          c := s lsr bits
        done;
        u.(j + vl) <- (u.(j + vl) + !c) land mask
      end
      else u.(j + vl) <- d;
      q.(j) <- !qhat
    done;
    shift_right u vl s;
    shift_right v vl s
  end

let addmul acc a an b bn =
  for i = 0 to an - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to bn - 1 do
        let t = acc.(i + j) + (ai * b.(j)) + !carry in
        acc.(i + j) <- t land mask;
        carry := t lsr bits
      done;
      let k = ref (i + bn) in
      while !carry <> 0 do
        let t = acc.(!k) + !carry in
        acc.(!k) <- t land mask;
        carry := t lsr bits;
        incr k
      done
    end
  done
