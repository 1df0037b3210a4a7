type t = { bytes : string }

let of_string s = { bytes = String.sub s 0 (String.length s) }
let reveal t = t.bytes

(* Constant-time over the length of the longer input: accumulate the
   XOR of every byte pair instead of returning at the first
   difference. *)
let equal a b =
  let la = String.length a.bytes and lb = String.length b.bytes in
  let n = max la lb in
  let acc = ref (la lxor lb) in
  for i = 0 to n - 1 do
    let ca = if i < la then Char.code a.bytes.[i] else 0 in
    let cb = if i < lb then Char.code b.bytes.[i] else 0 in
    acc := !acc lor (ca lxor cb)
  done;
  !acc = 0
