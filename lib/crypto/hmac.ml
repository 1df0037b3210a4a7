let xor_pad key pad =
  let b = Bytes.make 64 pad in
  String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor Char.code pad))) key;
  Bytes.to_string b

let sha1 ~key msg =
  let key = if String.length key > 64 then Sha1.digest key else key in
  Sha1.digest (xor_pad key '\x5c' ^ Sha1.digest (xor_pad key '\x36' ^ msg))

(* HMAC-SHA256 in one reusable state: the inner hash runs in [sha] as
   the message arrives; [pad] holds the key's opad block until
   [sha256_finish_into] reuses [sha] for the outer hash of opad and
   [inner]. *)
type sha256_ctx = { sha : Sha256.ctx; pad : Bytes.t; inner : Bytes.t }

let sha256_ctx () = { sha = Sha256.init (); pad = Bytes.create 64; inner = Bytes.create 32 }

let sha256_start c ~key =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let len = String.length key in
  for i = 0 to 63 do
    let k = if i < len then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set c.pad i (Char.unsafe_chr (k lxor 0x36))
  done;
  Sha256.reset c.sha;
  Sha256.update_sub c.sha (Bytes.unsafe_to_string c.pad) 0 64;
  (* 0x36 lxor 0x5c turns the ipad block into the opad block *)
  for i = 0 to 63 do
    Bytes.unsafe_set c.pad i (Char.unsafe_chr (Char.code (Bytes.unsafe_get c.pad i) lxor 0x6a))
  done

let sha256_add c s off len = Sha256.update_sub c.sha s off len

let sha256_finish_into c out off =
  Sha256.finalize_into c.sha c.inner 0;
  Sha256.reset c.sha;
  Sha256.update_sub c.sha (Bytes.unsafe_to_string c.pad) 0 64;
  Sha256.update_sub c.sha (Bytes.unsafe_to_string c.inner) 0 32;
  Sha256.finalize_into c.sha out off

(* The one-shot form keeps one state for the process: hashing never
   yields, so no two calls can interleave on it. *)
let shared = sha256_ctx ()

let sha256 ~key msg =
  sha256_start shared ~key;
  sha256_add shared msg 0 (String.length msg);
  let out = Bytes.create 32 in
  sha256_finish_into shared out 0;
  Bytes.unsafe_to_string out

let equal a b =
  let la = String.length a and lb = String.length b in
  let diff = ref (la lxor lb) in
  for i = 0 to min la lb - 1 do
    diff := !diff lor (Char.code a.[i] lxor Char.code b.[i])
  done;
  !diff = 0
