let small_primes =
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = 999 downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  !acc

let divisible_by_small n =
  List.exists
    (fun p ->
      let _, r = Nat.divmod n (Nat.of_int p) in
      Nat.is_zero r && Nat.compare n (Nat.of_int p) <> 0)
    small_primes

(* One Miller-Rabin round: n - 1 = d * 2^s with d odd; witness a
   passes if a^d = 1 or a^(d*2^r) = n-1 for some r < s. *)
let mr_round n d s a =
  let n1 = Nat.pred n in
  if Nat.compare a Nat.two < 0 || Nat.compare a n1 >= 0 then true
  else begin
    let x = ref (Modarith.pow ~m:n a d) in
    if Nat.equal !x Nat.one || Nat.equal !x n1 then true
    else begin
      let ok = ref false in
      let r = ref 1 in
      while not !ok && !r < s do
        x := Modarith.mul ~m:n !x !x;
        if Nat.equal !x n1 then ok := true;
        incr r
      done;
      !ok
    end
  end

let decompose n =
  (* n - 1 = d * 2^s *)
  let n1 = Nat.pred n in
  let rec go d s = if Nat.is_even d then go (Nat.shift_right d 1) (s + 1) else (d, s) in
  go n1 0

let rounds = 24

let is_probably_prime ~rand_bits n =
  if Nat.compare n Nat.two < 0 then false
  else if Nat.equal n Nat.two then true
  else if Nat.is_even n then false
  else if List.exists (fun p -> Nat.equal n (Nat.of_int p)) small_primes then true
  else if divisible_by_small n then false
  else begin
    let d, s = decompose n in
    let fixed = List.for_all (fun a -> mr_round n d s (Nat.of_int a)) [ 2; 3; 5; 7 ] in
    if not fixed then false
    else if Nat.num_bits n <= 32 then true (* deterministic below 3,215,031,751 *)
    else begin
      let bits = Nat.num_bits n in
      let rec loop i =
        if i = 0 then true
        else begin
          let a = rand_bits bits in
          if mr_round n d s a then loop (i - 1) else false
        end
      in
      loop rounds
    end
  end

let gen_prime_with ~bits ~rand_bits pred =
  if bits < 2 then invalid_arg "Prime.gen_prime: bits < 2";
  let top = Nat.shift_left Nat.one (bits - 1) in
  let rec loop () =
    let candidate = Nat.logor (Nat.logor (rand_bits bits) top) Nat.one in
    if pred candidate && is_probably_prime ~rand_bits candidate then candidate
    else loop ()
  in
  loop ()

let gen_prime ~bits ~rand_bits = gen_prime_with ~bits ~rand_bits (fun _ -> true)
