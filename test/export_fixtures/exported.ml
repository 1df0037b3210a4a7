let unused x = x + 1
let via_alias x = unused x

module Make (X : sig
  val base : int
end) =
struct
  let via_functor () = X.base
end

let seam x = x - 1
let test_only x = unused (unused x)
let empty_reason x = x * 2
