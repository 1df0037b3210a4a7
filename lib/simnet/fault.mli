(** Deterministic, seeded fault injection for the simulated network
    and disk. A [Fault.t] attached to a {!Link} makes each
    transmission subject to drop/duplicate/reorder/corrupt with the
    configured probabilities; attached to a block device it fails or
    corrupts scripted disk operations. Same seed, same schedule. *)

module Rng : sig
  (** A small deterministic PRNG (splitmix64) for fault scheduling
      and retry jitter — not for cryptography. *)

  type t

  val create : seed:string -> t
  val float : t -> float
  (** Uniform in [[0, 1)]. *)

  (* discfs-lint: allow test-only "the modulo-bias regression test draws from it directly" *)
  val int_below : t -> int -> int
  (** Uniform in [[0, n)] by rejection sampling (no modulo bias);
      [n] must be positive. *)
end

type net = { drop : float; duplicate : float; reorder : float; corrupt : float }
(** Per-packet fault probabilities; at most one fault fires per
    packet, chosen in the field order listed. *)

(* discfs-lint: allow test-only "the fault tests switch a lossy link back to clean" *)
val no_net : net

val lossy : float -> net
(** [lossy p] drops with probability [p] and duplicates/reorders/
    corrupts with probability [p/4] each — a rough model of a bad
    WAN path. Whenever the raw probabilities would sum past 1.0
    (p > 4/7) the profile is scaled back onto the simplex, keeping
    the 4:1:1:1 fault ratio instead of silently starving the last
    cascade entries. Raises [Invalid_argument] outside [0, 1]. *)

type net_action = Deliver | Drop | Duplicate | Reorder | Corrupt

type disk_fault = Fail_read | Fail_write | Corrupt_read

type t

val create : ?net:net -> ?seed:string -> unit -> t
val set_net : t -> net -> unit

val set_trace : t -> Trace.t -> unit
(** Adopt a tracer: injected disk faults are then recorded as
    [fault.disk.*] instant spans. {!Link.set_fault} and
    [Blockdev.set_fault] call this automatically. *)

val net_decide : t -> net_action
(** Roll the fate of one packet. *)

val corrupt_bytes : t -> string -> string
(** Flip one random byte (identity on the empty string). *)

(* discfs-lint: allow test-only "the disk-fault tests script a failure at a chosen operation" *)
val script_disk : t -> (int * disk_fault) list -> unit
(** Schedule faults by disk-operation index (0-based, counting every
    read and write on the device the fault is attached to). Each
    scripted fault fires once. *)

val disk_decide : t -> disk_fault option
(** Called by the block device per operation; advances the op
    counter and consumes any scripted fault. *)

(* discfs-lint: allow test-only "the disk-fault tests script a failure at the next operation" *)
val disk_ops : t -> int
