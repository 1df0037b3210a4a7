type cipher = Chacha20_poly1305 | Tdes_hmac_sha1

type t = {
  spi : int;
  key : Dcrypto.Secret.t;
  cipher : cipher;
  clock : Simnet.Clock.t;
  cost : Simnet.Cost.t;
  stats : Simnet.Stats.t;
  lifetime : int;
  trace : Trace.t;
  mutable seq_out : int;
  mutable window_top : int; (* highest sequence number seen *)
  mutable window_bits : int; (* bitmask of the 63 numbers below it *)
}

let window_size = 64

let create ~clock ~cost ~stats ~spi ~key ?(cipher = Chacha20_poly1305)
    ?(lifetime = max_int) ?(trace = Trace.null) () =
  if String.length key <> 32 then invalid_arg "Sa.create: key must be 32 bytes";
  if lifetime <= 0 then invalid_arg "Sa.create: lifetime must be positive";
  {
    spi;
    key = Dcrypto.Secret.of_string key;
    cipher;
    clock;
    cost;
    stats;
    lifetime;
    trace;
    seq_out = 0;
    window_top = 0;
    window_bits = 0;
  }

let spi t = t.spi
let key t = t.key
let cipher t = t.cipher
let clock t = t.clock
let cost t = t.cost
let stats t = t.stats
let trace t = t.trace
let lifetime t = t.lifetime
let soft_expired t = t.seq_out >= t.lifetime

let next_seq t =
  t.seq_out <- t.seq_out + 1;
  t.seq_out

let replay_check t seq =
  if seq <= 0 then false
  else if seq > t.window_top then begin
    let shift = seq - t.window_top in
    t.window_bits <-
      (if shift >= window_size then 0 else (t.window_bits lsl shift) land ((1 lsl (window_size - 1)) - 1));
    (* Mark the previous top as "seen" inside the shifted window. *)
    if t.window_top > 0 && shift < window_size then
      t.window_bits <- t.window_bits lor (1 lsl (shift - 1));
    t.window_top <- seq;
    true
  end
  else begin
    let offset = t.window_top - seq in
    if offset >= window_size - 1 then false (* too old *)
    else if offset = 0 then false (* replay of the current top *)
    else begin
      let bit = 1 lsl (offset - 1) in
      if t.window_bits land bit <> 0 then false
      else begin
        t.window_bits <- t.window_bits lor bit;
        true
      end
    end
  end
