exception Decode_error of string

let pad_len n = (4 - (n mod 4)) mod 4

module Enc = struct
  (* One growable byte arena per message. Encoders append at the
     tail; reserve/patch lets a writer leave a hole (a length word, a
     reply status) and fill it once the tail is known, so nested
     bodies such as the RPC credential no longer round-trip through
     their own Buffer.

     The message is a gather list: the arena's own bytes, with
     borrowed ranges of immutable strings spliced in between them.
     [buf.[0 .. len)] holds the own bytes; each piece records the own
     offset [at] it sits in front of. [pieces] is newest first and
     [borrowed] is the sum of their lengths, so the logical length is
     [len + borrowed]. *)
  type piece = { at : int; src : string; off : int; plen : int }

  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable pieces : piece list;
    mutable borrowed : int;
  }

  (* An own-byte offset: reserved words are always the arena's own
     bytes, whatever was borrowed around them. *)
  type patch = int

  let create () = { buf = Bytes.create 256; len = 0; pieces = []; borrowed = 0 }

  let length t = t.len + t.borrowed

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

  let zero_pad t p =
    ensure t p;
    Bytes.fill t.buf t.len p '\000';
    t.len <- t.len + p

  let add_padded t s =
    raw t s;
    zero_pad t (pad_len (String.length s))

  let opaque t s =
    uint32 t (String.length s);
    add_padded t s

  let opaque_fixed t n s =
    if String.length s <> n then invalid_arg "Xdr.Enc.opaque_fixed: length mismatch";
    add_padded t s

  let string = opaque

  let borrow t src ~off ~len =
    if off < 0 || len < 0 || off > String.length src - len then
      invalid_arg "Xdr.Enc.borrow: bad range";
    if len > 0 then begin
      t.pieces <- { at = t.len; src; off; plen = len } :: t.pieces;
      t.borrowed <- t.borrowed + len
    end

  let reserve_uint32 t =
    let p = t.len in
    uint32 t 0;
    p

  let patch_uint32 t p v =
    if v < 0 || v > 0xffffffff then invalid_arg "Xdr.Enc.patch_uint32: out of range";
    if p < 0 || p + 4 > t.len then invalid_arg "Xdr.Enc.patch_uint32: bad patch";
    set_be32 t.buf p v

  (* Walk the pieces newest first, each with the logical offset it
     starts at, until one starts before [n]: that one is cut to end
     at [n] (or dropped if it starts exactly there), and the own bytes
     are cut behind it. *)
  let truncate t n =
    if n < 0 || n > length t then invalid_arg "Xdr.Enc.truncate: bad length";
    let rec cut pieces borrowed =
      match pieces with
      | p :: rest when p.at + borrowed - p.plen >= n ->
        (* starts at or after [n] *)
        cut rest (borrowed - p.plen)
      | p :: rest ->
        let start = p.at + borrowed - p.plen in
        if start + p.plen <= n then begin
          t.pieces <- pieces;
          t.borrowed <- borrowed;
          t.len <- n - borrowed
        end
        else begin
          t.pieces <- { p with plen = n - start } :: rest;
          t.borrowed <- borrowed - p.plen + (n - start);
          t.len <- p.at
        end
      | [] ->
        t.pieces <- [];
        t.borrowed <- 0;
        t.len <- n
    in
    cut t.pieces t.borrowed

  let sub_writer t fill =
    let p = reserve_uint32 t in
    let start = length t in
    fill t;
    let n = length t - start in
    patch_uint32 t p n;
    zero_pad t (pad_len n)

  (* Back to front, so the newest-first piece list needs no reversal:
     the own bytes behind each piece, then the piece itself. A
     top-level loop, so the seal's one gather allocates no closure. *)
  let rec gather_from buf dst dst_off pieces own_end log_end =
    match pieces with
    | [] -> Bytes.blit buf 0 dst dst_off own_end
    | p :: rest ->
      let own = own_end - p.at in
      let own_start = log_end - own in
      Bytes.blit buf p.at dst (dst_off + own_start) own;
      let start = own_start - p.plen in
      Bytes.blit_string p.src p.off dst (dst_off + start) p.plen;
      gather_from buf dst dst_off rest p.at start

  let gather t dst dst_off = gather_from t.buf dst dst_off t.pieces t.len (length t)

  let to_string t =
    let b = Bytes.create (length t) in
    gather t b 0;
    Bytes.unsafe_to_string b
end

module Dec = struct
  (* A cursor over [data.[pos .. lim)]: a view may end before its
     string does (an opened ESP packet keeps its tag behind the
     plaintext), and nothing past [lim] is ever read. *)
  type t = { data : string; mutable pos : int; lim : int }

  let of_string data = { data; pos = 0; lim = String.length data }

  let sub data ~off ~len =
    if off < 0 || len < 0 || off > String.length data - len then
      invalid_arg "Xdr.Dec.sub: bad range";
    { data; pos = off; lim = off + len }

  let need t n =
    if n < 0 || n > t.lim - t.pos then raise (Decode_error "truncated XDR data")

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
  let remaining t = t.lim - t.pos

  let rest t =
    let n = remaining t in
    let s = if n = String.length t.data then t.data else String.sub t.data t.pos n in
    t.pos <- t.lim;
    s
  let expect_end t = if remaining t <> 0 then raise (Decode_error "trailing bytes")
end
