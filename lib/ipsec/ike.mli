(** A DSA-authenticated Diffie-Hellman key exchange in the role of
    the paper's IKE: it establishes a pair of Security Associations
    and tells each side the public key its peer authenticated with.
    DisCFS binds that key to the NFS connection (paper §5). *)

type endpoint = {
  tx : Sa.t; (** outbound SA *)
  rx : Sa.t; (** inbound SA *)
  peer : string; (** authenticated remote principal, [dsa-hex:...] form *)
}

exception Ike_failure of string

val establish :
  link:Simnet.Link.t ->
  drbg:Dcrypto.Drbg.t ->
  initiator:Dcrypto.Dsa.private_key ->
  responder:Dcrypto.Dsa.private_key ->
  (* discfs-lint: allow test-only "the tamper tests flip a byte of a numbered handshake message; only a tampered exchange shows the failure" *)
  ?mitm:(msg:int -> string -> string) ->
  ?cipher:Sa.cipher ->
  ?lifetime:int ->
  unit ->
  endpoint * endpoint
(** Run the exchange over [link] (charging wire and CPU time) and
    return the (initiator, responder) endpoints. [mitm] lets tests
    tamper with a numbered handshake message in flight; any
    modification makes the exchange fail with {!Ike_failure}.
    [lifetime] is the per-SA soft lifetime in packets (see
    {!Sa.soft_expired}). *)

val rekey :
  link:Simnet.Link.t ->
  drbg:Dcrypto.Drbg.t ->
  client:endpoint ->
  server:endpoint ->
  unit ->
  endpoint * endpoint
(** Abbreviated quick-mode-style refresh for SAs that hit their soft
    lifetime: new traffic keys are PRF-derived from the existing SA
    keys and a fresh nonce — no public-key operations, so it charges
    only [cost.ike_rekey]. Returns replacement (client, server)
    endpoints with new SPIs, reset sequence counters and empty replay
    windows; peers, cipher and lifetime carry over. Counted under
    ["ike.rekeys"]. *)

val rpc_channel : client:endpoint -> server:endpoint -> Oncrpc.Rpc.channel
(** Wire the two endpoints into the RPC layer's directional
    transforms (ESP on every request and reply). Both opens take the
    arrived datagram as their own and decrypt it in place
    ({!Esp.open_in_place}). *)
