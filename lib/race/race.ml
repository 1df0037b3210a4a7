(* Dynamic happens-before checking over the deterministic scheduler.

   The concurrency model makes this cheap and exact: a process slice
   (one scheduler event) is atomic, and a slice boundary is the only
   place another process can run. So "epoch" = Sched.events_run at
   access time, and a check-then-act window is racy exactly when a
   *different* process wrote the same key at an epoch strictly after
   the check. No vector clocks needed — the scheduler's total event
   order is the happens-before order.

   Instrumented structures call through a [monitor]; the default
   monitor is [null], whose operations are match-on-constructor
   no-ops — no clock advances, no stats, no allocation — so disabled
   runs are byte-identical to uninstrumented ones.

   Value-aware classification: a conflicting act that installs the
   same bytes the intervening writer installed is a duplicate fill
   (two processes caching the same block), counted benign rather than
   reported. Conflicts with differing or unknown values are reports.

   This module is itself the observation surface for shared state;
   the static pass exempts values it mediates.
   discfs-lint: atomic-section *)

type access = { a_pid : int; a_epoch : int; a_label : string }

type report = {
  r_structure : string;
  r_key : string;
  r_check : access;
  r_act_epoch : int;
  r_write : access;
}

type cell = {
  mutable last_write : (access * string option) option;
  mutable pending : (int * access) list; (* checking pid -> its latest check *)
}

(* Reports retained per context; the total is still counted. *)
let report_limit = 256

type ctx = {
  pid : unit -> int;
  epoch : unit -> int;
  annotate : unit -> string option;
  labels : (int, string) Hashtbl.t;
  mutable reports : report list; (* newest first, the first [report_limit] *)
  mutable n_reports : int;
  mutable benign : int;
  mutable accesses : int;
}

let create ?(annotate = fun () -> None) ~pid ~epoch () =
  {
    pid;
    epoch;
    annotate;
    labels = Hashtbl.create 64;
    reports = [];
    n_reports = 0;
    benign = 0;
    accesses = 0;
  }

let label_of ctx pid =
  match Hashtbl.find_opt ctx.labels pid with
  | Some l -> l
  | None -> ( match ctx.annotate () with Some s -> s | None -> "")

let snapshot ctx =
  let pid = ctx.pid () in
  { a_pid = pid; a_epoch = ctx.epoch (); a_label = label_of ctx pid }

let reports ctx = List.rev ctx.reports
let total_reports ctx = ctx.n_reports
let benign ctx = ctx.benign
let accesses ctx = ctx.accesses

let lbl a = if a.a_label = "" then "" else Printf.sprintf " (%s)" a.a_label

let render_report r =
  Printf.sprintf "race: %s[%s]: p%d%s check@%d act@%d crossed by p%d%s write@%d"
    r.r_structure r.r_key r.r_check.a_pid (lbl r.r_check) r.r_check.a_epoch r.r_act_epoch
    r.r_write.a_pid (lbl r.r_write) r.r_write.a_epoch

type monitor =
  | Noop
  | Mon of { ctx : ctx; name : string; cells : (string, cell) Hashtbl.t }

let null = Noop
let monitor ctx name = Mon { ctx; name; cells = Hashtbl.create 64 }
let enabled = function Noop -> false | Mon _ -> true

(* Process labels live on the shared ctx, so a note through any
   monitor names the current process for every structure's reports. *)
let note m label =
  match m with Noop -> () | Mon { ctx; _ } -> Hashtbl.replace ctx.labels (ctx.pid ()) label

let origin m =
  match m with Noop -> None | Mon { ctx; _ } -> Some (ctx.pid (), ctx.epoch ())

let cell_of cells key =
  match Hashtbl.find_opt cells key with
  | Some c -> c
  | None ->
    let c = { last_write = None; pending = [] } in
    Hashtbl.replace cells key c;
    c

let read m ~key =
  match m with
  | Noop -> ()
  | Mon { ctx; _ } ->
    ignore key;
    ctx.accesses <- ctx.accesses + 1

let check m ~key =
  match m with
  | Noop -> ()
  | Mon { ctx; cells; _ } ->
    ctx.accesses <- ctx.accesses + 1;
    let a = snapshot ctx in
    let c = cell_of cells key in
    c.pending <- (a.a_pid, a) :: List.remove_assoc a.a_pid c.pending

let write m ~key =
  match m with
  | Noop -> ()
  | Mon { ctx; cells; _ } ->
    ctx.accesses <- ctx.accesses + 1;
    let c = cell_of cells key in
    c.last_write <- Some (snapshot ctx, None)

let emit ctx r =
  ctx.n_reports <- ctx.n_reports + 1;
  if ctx.n_reports <= report_limit then ctx.reports <- r :: ctx.reports

(* The act closing a check window: racy iff a different process wrote
   the key strictly after the check. [window] hands the check's
   (pid, epoch) across processes — the worker acting on a decision a
   client-side admission slice took (see Rpc.submit). The act itself
   is a mutation, so it becomes the key's new last write. *)
let act m ?value ?window ~key () =
  match m with
  | Noop -> ()
  | Mon { ctx; name; cells } ->
    ctx.accesses <- ctx.accesses + 1;
    let a = snapshot ctx in
    let c = cell_of cells key in
    let checked =
      match window with
      | Some (pid, ep) -> Some { a_pid = pid; a_epoch = ep; a_label = label_of ctx pid }
      | None -> List.assoc_opt a.a_pid c.pending
    in
    (match checked with
    | None -> ()
    | Some chk ->
      (match c.last_write with
      | Some (w, wv) when w.a_pid <> chk.a_pid && w.a_epoch > chk.a_epoch -> (
        match (value, wv) with
        | Some v, Some v' when String.equal v v' -> ctx.benign <- ctx.benign + 1
        | _ ->
          emit ctx
            {
              r_structure = name;
              r_key = key;
              r_check = chk;
              r_act_epoch = a.a_epoch;
              r_write = w;
            })
      | _ -> ());
      c.pending <- List.remove_assoc chk.a_pid c.pending);
    c.last_write <- Some (a, value)

(* Structure-wide teardown (cache drop on crash): every cell dies, so
   windows spanning the wipe cannot pair stale state with fresh fills
   of the next incarnation. *)
let wipe m = match m with Noop -> () | Mon { cells; _ } -> Hashtbl.reset cells
