module Nat = Bignum.Nat

type secret = { x : Nat.t; params : Dsa.params }
type share = Nat.t

let gen ?params drbg =
  let params = match params with Some p -> p | None -> Dsa.default_params () in
  let x = Nat.succ (Drbg.nat_below drbg (Nat.pred params.q)) in
  let share = Dsa.pow_g params x in
  ({ x; params }, share)

let shared ?params secret peer =
  let params = match params with Some p -> p | None -> secret.params in
  let p1 = Nat.pred params.p in
  if Nat.compare peer Nat.two < 0 || Nat.compare peer (Nat.pred p1) > 0 then
    invalid_arg "Dh.shared: peer share out of range";
  let z = Dsa.pow_mod_p params peer secret.x in
  Sha256.digest (Nat.to_bytes_be z)
