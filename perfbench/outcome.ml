(* What a workload hands back after its timed run.

   Two windows: the virtual window is a fixed amount of work set by
   the workload (so its virtual-time results and counts are a pure
   function of the seed); the timed window starts at the same first
   operation and keeps going, in whole units of work, until the wall
   budget is spent. The virtual window always completes, and the
   decision to continue is only taken at points where nothing the
   virtual window measures is still in flight. No operation is allowed
   to fail: an error or a failed output check aborts the run. *)

type window = {
  ops : int;
  vseconds : float;  (** virtual seconds from the first op to the last window op done *)
  wall : float;  (** wall seconds the virtual window took *)
  heap_peak_mb : float;  (** GC top heap when the window closed *)
  alloc_words : float;  (** allocated by the process over the window *)
  major_gcs : int;  (** major collections over the window *)
  vlat : float list;  (** virtual latency of each window op, seconds *)
  counts : (string * int) list;  (** counter deltas over the window *)
  histograms : (string * float) list;
      (** queue-time quantiles and span self-time sums over the window,
          seconds *)
  file_bytes : int;  (** file data delivered to users in the window *)
}

type t = {
  window : window;
  timed_ops : int;  (** ops completed in the timed window *)
  timed_wall : float;
}
