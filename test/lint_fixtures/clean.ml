(* Fixture: rule-abiding code — dedicated comparisons, no ambient
   state, errors via result. The linter must report nothing here. *)

(* discfs-lint: allow mli-coverage *)

let nat_eq = Bignum.Nat.equal

let keys_eq a b = String.equal (Dcrypto.Dsa.pub_encode a) (Dcrypto.Dsa.pub_encode b)

let decode_flag = function 0 -> Ok false | 1 -> Ok true | n -> Error n

let describe () = Printf.sprintf "%d" 42
