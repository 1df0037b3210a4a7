(** In-place kernels over fixed-width limb buffers (private to
    [bignum]).

    A buffer is a little-endian [int array] of 26-bit limbs that may
    carry high zero limbs; each kernel takes the significant length of
    its operands explicitly and writes only into buffers the caller
    owns. They allocate nothing. *)

val bits : int
(** Bits per limb (26). *)

val mask : int

val sig_len : int array -> int -> int
(** [sig_len a n] is the length of [a.(0..n-1)] without its high zero
    limbs. *)

val width : int -> int
(** Number of significant bits of a non-negative [int]. *)

val shift_left : int array -> int -> int -> int
(** [shift_left a n s] shifts [a.(0..n-1)] left by [s < 26] bits in
    place and returns the bits shifted out of the top limb. *)

val shift_right : int array -> int -> int -> unit
(** [shift_right a n s] shifts [a.(0..n-1)] right by [s < 26] bits in
    place. *)

val divrem : int array -> int -> int array -> int -> int array -> unit
(** [divrem u ul v vl q] divides [u.(0..ul-1)] by [v.(0..vl-1)].
    Requires [vl >= 1], [v.(vl-1) <> 0], [ul >= vl], and a spare zero
    limb [u.(ul)]. Writes the quotient to [q.(0..ul-vl)] and leaves the
    remainder in [u.(0..vl-1)] with [u.(vl..ul)] zero. [v] is shifted
    during the call and restored before it returns. *)

val addmul : int array -> int array -> int -> int array -> int -> unit
(** [addmul acc a an b bn] adds [a.(0..an-1) * b.(0..bn-1)] into
    [acc]. [acc] must be long enough to hold the sum. *)
