(** A reimplementation of the Bonnie filesystem benchmark phases the
    paper reports (Figures 7-11): sequential output per-character,
    per-block and rewrite; sequential input per-character and
    per-block. Times are virtual; throughput is reported in KB/s of
    simulated time, matching Bonnie's "K/sec" columns. *)

type result = {
  label : string;
  size_bytes : int;
  out_char_kps : float; (** Fig. 7: Sequential Output (Char) *)
  out_block_kps : float; (** Fig. 8: Sequential Output (Block) *)
  rewrite_kps : float; (** Fig. 9: Sequential Output (Rewrite) *)
  in_char_kps : float; (** Fig. 10: Sequential Input (Char) *)
  in_block_kps : float; (** Fig. 11: Sequential Input (Block) *)
}

val run : backend:Backend.t -> ?size_mb:int -> unit -> result
(** Run all five phases on a scratch file of [size_mb] (default 16;
    the paper uses 100 MB — throughput in this simulation is
    size-invariant because no page cache is modelled, see
    EXPERIMENTS.md). *)
