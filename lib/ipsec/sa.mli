(** A unidirectional IPsec Security Association: SPI, traffic key,
    sender sequence counter and receiver anti-replay window. *)

type cipher = Chacha20_poly1305 | Tdes_hmac_sha1
(** The ESP transform. [Tdes_hmac_sha1] is what 2001 IPsec actually
    ran (and is dramatically slower); [Chacha20_poly1305] stands in
    for a fast modern transform. *)

type t

val create :
  clock:Simnet.Clock.t ->
  cost:Simnet.Cost.t ->
  stats:Simnet.Stats.t ->
  spi:int ->
  key:string ->
  ?cipher:cipher ->
  ?lifetime:int ->
  ?trace:Trace.t ->
  unit ->
  t
(** [key] must be 32 bytes; [cipher] defaults to
    [Chacha20_poly1305]. [lifetime] is the soft lifetime in packets:
    once [seq_out] reaches it, {!soft_expired} reports true and the
    owner should re-key (the SA itself keeps working — soft, not
    hard). Defaults to unlimited. *)

val spi : t -> int

val key : t -> Dcrypto.Secret.t
(** The traffic key, still wrapped; {!Dcrypto.Secret.reveal} only at
    the cipher/PRF call. *)

val cipher : t -> cipher
val clock : t -> Simnet.Clock.t
val cost : t -> Simnet.Cost.t
val stats : t -> Simnet.Stats.t

val trace : t -> Trace.t
(** The tracer ESP seal/open operations under this SA report to
    ({!Trace.null} by default); IKE passes the link's tracer in. *)

val lifetime : t -> int

val soft_expired : t -> bool
(** True once the outbound sequence counter has reached the soft
    lifetime: time to re-key. *)

val next_seq : t -> int
(** Allocate the next outbound sequence number (starting at 1). *)

val replay_check : t -> int -> bool
(** [replay_check t seq] is true exactly once per fresh sequence
    number inside the 64-packet window; replays and too-old packets
    return false. Marks the number as seen. *)
