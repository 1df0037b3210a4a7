(** Epoch-based happens-before race checking for the cooperative
    scheduler.

    Under {!Simnet.Sched} a process slice (one event) is atomic; the
    only interleaving points are slice boundaries. An access is
    stamped with the process id ({!Simnet.Sched.current_pid}) and the
    yield epoch ({!Simnet.Sched.events_run}); a check-then-act pair
    by one process is a race exactly when a different process wrote
    the same key at an epoch strictly after the check — the
    scheduler's total event order {e is} the happens-before order.

    Instrumented structures hold a {!monitor}; {!null} (the default,
    wired unless [Cluster.make ~racecheck:true]) makes every operation
    a constructor-match no-op with zero observable effect, so
    disabled runs are byte-identical to uninstrumented ones.

    Value-aware classification: an act installing the same bytes the
    intervening writer installed (two processes filling a cache with
    the same block) counts as {!benign}, not a report. *)

type access = { a_pid : int; a_epoch : int; a_label : string }

type report = {
  r_structure : string;  (** monitor name, e.g. ["bcache"] *)
  r_key : string;
  r_check : access;  (** the check opening the window *)
  r_act_epoch : int;  (** epoch of the act that closed it *)
  r_write : access;  (** the intervening write by another process *)
}

type ctx
(** Shared checker state for one deployment: pid/epoch probes, the
    per-process label table, and the report/benign/access counters
    every monitor feeds. *)

val create :
  ?annotate:(unit -> string option) ->
  pid:(unit -> int) ->
  epoch:(unit -> int) ->
  unit ->
  ctx
(** The context retains the first 256 reports and counts them all.
    [annotate] is the label fallback when no {!note} named
    the current process — deployments pass [Trace.current]. *)

(* discfs-lint: allow test-only "the race tests read the retained reports" *)
val reports : ctx -> report list
(** Retained reports in occurrence order — deterministic, since the
    schedule is. *)

val total_reports : ctx -> int
(* discfs-lint: allow test-only "the race tests check that duplicate fills were classified benign" *)
val benign : ctx -> int
(** Conflicts suppressed because the act re-installed the writer's
    exact value (duplicate fills). *)

(* discfs-lint: allow test-only "the race tests prove the instrumentation was live in a clean run" *)
val accesses : ctx -> int
(** Monitored operations observed — proof the instrumentation was
    live when a clean run claims atomicity. *)

(* discfs-lint: allow test-only "the race tests inspect and compare rendered reports" *)
val render_report : report -> string

type monitor

val null : monitor
(** The disabled monitor: every operation is a no-op. *)

val monitor : ctx -> string -> monitor
(** A live monitor named [name] over [ctx]; one per structure. *)

val enabled : monitor -> bool

val note : monitor -> string -> unit
(** Label the current process (e.g. ["rpc proc=4 peer=alice"]) for
    subsequent reports naming it; labels are ctx-wide. *)

val origin : monitor -> (int * int) option
(** [(pid, epoch)] of the calling slice, for handing a check's
    identity to an act that runs in another process ([?window]). *)

val read : monitor -> key:string -> unit
(** A racefree observation (cache hit): counted, no window opened. *)

val check : monitor -> key:string -> unit
(** Open (or refresh) the current process's check window on [key]. *)

val write : monitor -> key:string -> unit
(** Record a mutation of [key] (invalidate, remove, store). It
    records no value, so an act after it is never a benign duplicate
    of it. *)

val act : monitor -> ?value:string -> ?window:int * int -> key:string -> unit -> unit
(** Close the check window on [key]: if another process wrote [key]
    at an epoch after the check ([?window] if the check happened in a
    different process, else the caller's own pending check), report —
    or count benign when [?value] matches the writer's. The act then
    becomes the key's last write. *)

val wipe : monitor -> unit
(** Forget all per-key state (cache drop on crash): windows spanning
    the wipe cannot pair old state with the next incarnation. *)
