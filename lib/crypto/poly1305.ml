(* Poly1305 runs in C (dcrypto_stubs.c, 26-bit limbs with 64-bit
   products). This side checks the key size and the range, then makes
   one [@@noalloc] call that writes the tag into a fresh 16 bytes. *)

let tag_size = 16

(* [mac_raw key msg off len tag]: unchecked. *)
external mac_raw : string -> string -> int -> int -> Bytes.t -> unit = "dcrypto_poly1305_mac"
[@@noalloc]

let mac_sub ~key msg ~off ~len =
  if String.length key <> 32 then invalid_arg "Poly1305: key must be 32 bytes";
  if off < 0 || len < 0 || off + len > String.length msg then
    invalid_arg "Poly1305.mac_sub: range out of bounds";
  let tag = Bytes.create tag_size in
  mac_raw key msg off len tag;
  Bytes.unsafe_to_string tag

let mac ~key msg = mac_sub ~key msg ~off:0 ~len:(String.length msg)
