(** ONC RPC (RFC 5531 subset) over a simulated link, with
    at-least-once datagram semantics.

    Calls are fully marshalled to XDR bytes, optionally wrapped by a
    channel transform (the IPsec ESP layer), transmitted over the
    {!Simnet.Link} (which charges virtual wire time and may inject
    faults), unwrapped and dispatched. The server charges per-call
    marshalling/dispatch CPU from the cost model.

    When the link carries a fault injector, the client behaves like
    the paper's NFS-over-UDP substrate: it retransmits on a timeout
    with exponential backoff and jitter (re-sealing each attempt so
    retransmissions carry fresh ESP sequence numbers), and the server
    keeps a duplicate-request cache keyed by (peer, xid, proc) so
    retransmitted non-idempotent calls (CREATE, REMOVE, RENAME,
    WRITE) are answered from the record instead of re-executed. The
    record is the executed call's reply arena itself, which nothing
    writes to once the handler returns: a replay seals it again under
    a fresh sequence number and carries the first reply's bytes. The
    arena holds the reply header, the handler's own encoded bytes, and
    any ranges the handler borrowed ({!Xdr.Enc.borrow}) — an NFS READ
    reply points at the volume's immutable blocks instead of holding a
    copy of the data — so a recorded reply keeps those blocks alive,
    unchanged, until the record is evicted, even if a later WRITE
    replaces them.
    Packets that fail to unseal at either end (corrupted, replayed)
    are silently dropped and absorbed by the retry loop.

    A connection carries a [peer] principal string: the identity the
    secure channel was authenticated to (empty for plaintext
    connections). DisCFS reads the requesting public key from it, as
    the paper's server learns the IKE-authenticated key of the
    client. *)

type fault =
  | Prog_unavail
  | Proc_unavail
  | Garbage_args
  | System_err of string

type conn_info = { peer : string; uid : int }
(** [peer]: channel-authenticated principal; [uid]: the AUTH_UNIX uid
    claimed in the call credential. *)

type handler =
  conn:conn_info -> proc:int -> args:Xdr.Dec.t -> Xdr.Enc.t -> (unit, fault) result
(** A procedure handler decodes its arguments from [args], a cursor
    over the opened datagram positioned on them, and encodes its
    results straight into the reply arena it is handed, behind the
    RPC reply header. On [Error] — or when decoding [args] raises
    [Xdr.Decode_error], answered as {!Garbage_args} — whatever it
    wrote is discarded and the reply carries the fault. *)

type server

val server : clock:Simnet.Clock.t -> cost:Simnet.Cost.t -> stats:Simnet.Stats.t -> server
val register : server -> prog:int -> vers:int -> handler -> unit

val set_trace : server -> Trace.t -> unit
(** Adopt a tracer: each dispatched datagram then appears as a
    ["rpc.dispatch"] span with ["xdr.unmarshal"]/["xdr.marshal"]
    children and ["rpc.drc_hit"] instants. Client-side spans
    (["rpc.call"], ["rpc.attempt"], ["rpc.backoff"]) follow the
    link's tracer ({!Simnet.Link.set_trace}) on calls dispatched
    in-line. A call through the worker pool ({!set_pool}) opens none,
    and the queue records only its ["rpc.drc_hit"] and
    ["rpc.queue_reject"] instants. *)

val set_race : server -> drc:Race.monitor -> in_flight:Race.monitor -> unit
(** Attach race monitors (default {!Race.null}) to the two delicate
    server-side windows: the duplicate-request cache — an admission
    slice's DRC-miss check is closed by the completing worker's act,
    so a double execution of one key is reported (benign only when
    the replies are byte-identical) — and the in-flight coalescing
    map, whose check/act pairs are slice-atomic by construction.
    Only the pooled (concurrent) path is monitored; serial dispatch
    has no interleaving to check. *)

val set_pool : server -> sched:Simnet.Sched.t -> workers:int -> queue_depth:int -> unit
(** Give the server a bounded request queue and a worker pool.
    {!call}s issued from inside a scheduler process are then admitted
    through the queue — per-client FIFOs drained round-robin by up to
    [workers] concurrent worker processes — instead of being executed
    in-line; a full queue ([queue_depth] jobs waiting) drops the
    datagram, and the client's at-least-once retransmission absorbs
    the loss (["rpc.queue_rejects"] in stats). Retransmissions of a
    request still queued or executing coalesce onto that execution
    (["rpc.coalesced"]). The queue also records ["rpc.queue.wait"] /
    ["rpc.queue.service"] histograms in the server's registry and its
    high-water mark ({!queue_peak}). Calls made outside any process (setup code,
    serial benchmarks) keep the exact serial semantics. Raises
    [Invalid_argument] unless [workers] and [queue_depth] are
    positive. *)

val queue_peak : server -> int
(** High-water mark of the request queue since the pool was
    attached (0 without a pool). *)

(* discfs-lint: allow test-only "the duplicate-request-cache tests shrink the cache to force evictions" *)
val set_drc_capacity : server -> int -> unit
(** Bound the duplicate-request cache (default 512 entries),
    evicting least-recently-used entries immediately if the new
    capacity is smaller; 0 disables the cache. The cache is an
    {!Lru} keyed by (peer, xid, proc): a replayed reply refreshes its
    entry, recording a reply never does. Evictions are counted under
    ["rpc.drc_evictions"]. *)

val shutdown : server -> unit
(** Simulate a server crash: every datagram sent to this server from
    now on vanishes (counted under ["rpc.dropped_dead"]), so clients
    time out and retransmit. Used with a fresh [server] to model
    crash/restart. *)

type client

type channel = {
  server_open : string -> Xdr.Dec.t;
  server_seal : Xdr.Enc.t -> string;
  client_open : string -> Xdr.Dec.t;
  client_seal : Xdr.Enc.t -> string;
}
(** Directional wire transforms (the ESP layer): requests are sealed
    by the client and opened by the server, replies the reverse. The
    transforms run "inside" the simulated hosts, so any virtual time
    they charge lands on the right side. Both opens take an arrived
    datagram — the receiver's own buffer, which the link hands to no
    one else — and return a cursor bounded to its plaintext, which
    the RPC layer decodes where it lies; under ESP that is
    [Esp.open_in_place], which decrypts the datagram over itself, and
    on {!plaintext} it is [Xdr.Dec.of_string]. Both seals take a finished
    message arena and only read it: {!call} encodes each request into
    one arena and [client_seal] encrypts its bytes straight into a
    wire packet on every attempt; the server encodes each reply into
    one arena, records that arena in the duplicate-request cache, and
    [server_seal] encrypts it for the first transmission and for every
    replay. Each seal takes a fresh ESP sequence number. Under ESP
    both seals are [Esp.seal_arena]; on {!plaintext} they are
    [Xdr.Enc.to_string]. *)

(* discfs-lint: allow test-only "the channel tests build faulty variants of the identity transforms" *)
val plaintext : channel
(** Identity transforms. *)

type retry = {
  base_timeout : float; (** virtual seconds before the first retransmission *)
  backoff : float; (** timeout multiplier per retransmission *)
  max_attempts : int; (** total transmissions before {!Rpc_timeout} *)
  jitter : float; (** +/- fraction of the timeout, desynchronizes retries *)
}

(* discfs-lint: allow test-only "the retry tests derive their profiles and expected backoffs from it" *)
val default_retry : retry
(** 0.8 s initial timeout, doubling, 6 attempts, 10% jitter — the
    classic NFS/UDP client profile. *)

val connect :
  link:Simnet.Link.t ->
  ?channel:channel ->
  ?peer:string ->
  ?uid:int ->
  ?retry:retry ->
  server ->
  client

(* discfs-lint: allow test-only "the regression tests pin the xid layout" *)
val make_xid : client_id:int -> seq:int -> int
(** The 32-bit xid layout: client id in the top 12 bits, per-client
    call sequence in the low 20. Bands are disjoint across client
    ids, so DRC keys (peer, xid, proc) cannot collide between
    clients — even plaintext ones sharing the empty peer string, and
    even after one client issues more than 2^20 calls (its sequence
    wraps within its own band). Exposed for the regression tests. *)

val client_id : client -> int
(** The id {!connect} allocated from the server's monotonic
    per-incarnation counter — the top bits of every xid this client
    sends ({!make_xid}).  Distinct across all clients of one server
    incarnation, which is what the churn tests assert: no xid band is
    ever reused while a duplicate-request cache could still hold the
    old band's replies. *)

val set_channel : client -> channel -> unit
(** Swap the wire transforms in place — used when the SAs are
    re-keyed mid-connection. *)

val set_before_call : client -> (unit -> unit) -> unit
(** Hook run at the top of every {!call} (before the xid is
    allocated); the IPsec layer uses it to re-key SAs that hit their
    soft lifetime. *)

exception Rpc_error of fault

exception Rpc_timeout of string
(** No usable reply after [retry.max_attempts] transmissions: the
    server is down or the path is fully broken. *)

val call : client -> prog:int -> vers:int -> proc:int -> (Xdr.Enc.t -> unit) -> Xdr.Dec.t
(** [call c ~prog ~vers ~proc args] frames the call header into a
    fresh request arena and runs [args] to marshal the procedure
    arguments straight behind it (a caller holding pre-marshalled
    bytes [s] passes [fun e -> Xdr.Enc.raw e s]); then transmits,
    dispatches, and returns a cursor over the result bytes where they
    lie in the opened reply. Raises
    {!Rpc_error} on RPC-level failure and {!Rpc_timeout} when
    retransmissions are exhausted. Retry progress is visible in the
    link's stats: ["rpc.retransmits"], ["rpc.server_rx_drops"],
    ["rpc.client_rx_drops"], ["rpc.stale_replies"]. *)

(** {1 Wire level}

    The raw RFC 5531 framing, exposed so tests and fuzzers can build
    and dissect datagrams without a client. *)

val encode_call :
  xid:int -> prog:int -> vers:int -> proc:int -> uid:int -> string -> string
(** Frame a CALL message; the argument string is the pre-marshalled
    procedure arguments. *)

val encode_call_into :
  Xdr.Enc.t -> xid:int -> prog:int -> vers:int -> proc:int -> uid:int -> string -> unit
(** Frame a CALL straight into an arena (byte-identical to
    {!encode_call}); {!call} frames its request arena the same way,
    with the caller's argument writer in place of the string. *)

(* discfs-lint: allow test-only "the hot-path golden checks the reply framing byte for byte against the reference pipeline" *)
val encode_reply_into : Xdr.Enc.t -> xid:int -> (string, fault) result -> unit
(** Frame a REPLY carrying pre-marshalled results straight into an
    arena; byte-identical to the reply a handler writing the same
    results produces. *)

(* discfs-lint: allow test-only "tests and the fuzzer feed the queue hand-built datagrams in hand-built interleavings" *)
val submit : server -> conn:conn_info -> reply:(Xdr.Enc.t -> unit) -> Xdr.Dec.t -> unit
(** Feed one opened datagram through the queued path, exactly as a
    pooled {!call} does on arrival: DRC replay, retransmit
    coalescing, bounded-queue admission (or rejection), worker
    execution, then [reply] with the finished reply arena (possibly
    never, if the queue sheds the datagram or the server dies).
    Requires an attached pool ({!set_pool}); the scheduler must be
    {!Simnet.Sched.run} for anything to happen. *)

(* discfs-lint: allow test-only "tests and the fuzzer feed the server hand-built datagrams, garbage and retransmissions included" *)
val serve : server -> conn:conn_info -> Xdr.Dec.t -> Xdr.Enc.t option
(** Feed one opened datagram to the server exactly as an in-line
    {!call} does: charges dispatch cost, consults the
    duplicate-request cache, runs the handler and returns the
    finished reply arena ([None] when the server is {!shutdown}). *)
