type t = { bytes : string }

let of_string s = { bytes = String.sub s 0 (String.length s) }
let reveal t = t.bytes

