exception Decode_error of string

let pad_len n = (4 - (n mod 4)) mod 4

module Enc = struct
  (* One growable byte arena per message. Encoders append at [len];
     reserve/patch lets a writer leave a hole (a length word, a reply
     status) and fill it once the tail is known, so nested bodies such
     as the RPC credential no longer round-trip through their own
     Buffer. *)
  type t = { mutable buf : Bytes.t; mutable len : int }
  type patch = int

  let create () = { buf = Bytes.create 256; len = 0 }

  let length t = t.len

  (* Growth at least doubles (amortized appends) but jumps straight to
     [need] when one request outgrows that, so a body sized up front
     costs exactly one growth. *)
  let ensure t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let set_be32 buf off v =
    Bytes.set buf off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set buf (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set buf (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set buf (off + 3) (Char.chr (v land 0xff))

  let uint32 t v =
    if v < 0 || v > 0xffffffff then invalid_arg "Xdr.Enc.uint32: out of range";
    ensure t 4;
    set_be32 t.buf t.len v;
    t.len <- t.len + 4

  let int32 t v =
    if v < -0x80000000 || v > 0x7fffffff then invalid_arg "Xdr.Enc.int32: out of range";
    uint32 t (v land 0xffffffff)

  let uint64 t v =
    ensure t 8;
    for i = 7 downto 0 do
      Bytes.set t.buf t.len
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xffL)));
      t.len <- t.len + 1
    done

  let bool t v = uint32 t (if v then 1 else 0)

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let add_padded t s =
    let n = String.length s in
    let p = pad_len n in
    ensure t (n + p);
    Bytes.blit_string s 0 t.buf t.len n;
    Bytes.fill t.buf (t.len + n) p '\000';
    t.len <- t.len + n + p

  let opaque t s =
    uint32 t (String.length s);
    add_padded t s

  let opaque_fixed t n s =
    if String.length s <> n then invalid_arg "Xdr.Enc.opaque_fixed: length mismatch";
    add_padded t s

  let string = opaque

  let reserve_uint32 t =
    let p = t.len in
    uint32 t 0;
    p

  let patch_uint32 t p v =
    if v < 0 || v > 0xffffffff then invalid_arg "Xdr.Enc.patch_uint32: out of range";
    if p < 0 || p + 4 > t.len then invalid_arg "Xdr.Enc.patch_uint32: bad patch";
    set_be32 t.buf p v

  let truncate t n =
    if n < 0 || n > t.len then invalid_arg "Xdr.Enc.truncate: bad length";
    t.len <- n

  let sub_writer t fill =
    let p = reserve_uint32 t in
    let start = t.len in
    fill t;
    let n = t.len - start in
    patch_uint32 t p n;
    let pad = pad_len n in
    ensure t pad;
    Bytes.fill t.buf t.len pad '\000';
    t.len <- t.len + pad

  let bytes t = t.buf
  let to_string t = Bytes.sub_string t.buf 0 t.len
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let need t n =
    if n < 0 || t.pos + n > String.length t.data then
      raise (Decode_error "truncated XDR data")

  let uint32 t =
    need t 4;
    let v =
      (Char.code t.data.[t.pos] lsl 24)
      lor (Char.code t.data.[t.pos + 1] lsl 16)
      lor (Char.code t.data.[t.pos + 2] lsl 8)
      lor Char.code t.data.[t.pos + 3]
    in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    let v = uint32 t in
    if v land 0x80000000 <> 0 then v - 0x100000000 else v

  let uint64 t =
    need t 8;
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code t.data.[t.pos]));
      t.pos <- t.pos + 1
    done;
    !v

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Decode_error (Printf.sprintf "bad boolean %d" n))

  (* Canonicality: RFC 4506 §3 requires the pad bytes to be zero. A
     decoder that ignores them admits distinct wire encodings of the
     same value — a hazard for DRC keys and any signature computed
     over re-encoded bytes — so non-zero padding is a decode error,
     not a don't-care. *)
  let take_padded_with t n f =
    let p = pad_len n in
    need t (n + p);
    for i = 0 to p - 1 do
      if t.data.[t.pos + n + i] <> '\000' then
        raise (Decode_error "non-zero XDR padding")
    done;
    let at = t.pos in
    t.pos <- t.pos + n + p;
    f t.data ~off:at ~len:n

  let take_padded t n = take_padded_with t n (fun s ~off ~len -> String.sub s off len)

  let opaque_with t f =
    let n = uint32 t in
    take_padded_with t n f

  let opaque t =
    let n = uint32 t in
    take_padded t n

  let opaque_fixed t n = take_padded t n
  let string = opaque
  let remaining t = String.length t.data - t.pos

  let rest t =
    let n = remaining t in
    let s = if t.pos = 0 then t.data else String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s
  let expect_end t = if remaining t <> 0 then raise (Decode_error "trailing bytes")
end
