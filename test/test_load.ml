(* The SLO / load-generation suite: arrival-process statistics and
   seed determinism (QCheck), interpolated-quantile goldens including
   the overflow saturation semantics, the open-loop property of the
   generator, the sweep knee, the boot storm, and the long-horizon
   churn conservation laws (no client-id reuse, op-count conservation,
   deterministic reports). *)

module Clock = Simnet.Clock
module Sched = Simnet.Sched
module Arrival = Simnet.Arrival
module Metrics = Trace.Metrics
module Gen = Load.Gen
module Slo = Load.Slo
module Scenario = Load.Scenario

let feq = Alcotest.(check (float 1e-9))

(* --- arrival processes ------------------------------------------------ *)

let sample_moments p ~seed ~n =
  let a = Arrival.create ~seed p in
  let xs = Array.init n (fun _ -> Arrival.next a) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    /. float_of_int n
  in
  (mean, var)

let rel_err got want = Float.abs (got -. want) /. want

let gen_seed = QCheck.Gen.(map (Printf.sprintf "arr-%d") (int_bound 100_000))

(* Tolerances sit ≥ 4.5 sigma from the estimator's own sampling
   noise at these n, so the properties separate real generator bugs
   (wrong law, wrong scaling) from statistical flutter. *)
let prop_poisson_moments =
  QCheck.Test.make ~name:"poisson: sample moments track analytic" ~count:20
    (QCheck.make gen_seed) (fun seed ->
      let p = Arrival.Poisson { rate = 10.0 } in
      let mean, var = sample_moments p ~seed ~n:8000 in
      rel_err mean (Arrival.mean p) < 0.08 && rel_err var (Arrival.variance p) < 0.25)

let prop_pareto_moments =
  QCheck.Test.make ~name:"bounded pareto: sample moments track analytic" ~count:10
    (QCheck.make gen_seed) (fun seed ->
      let p = Arrival.Pareto { rate = 10.0; alpha = 2.5; cap = 50.0 } in
      let mean, var = sample_moments p ~seed ~n:20_000 in
      rel_err mean (Arrival.mean p) < 0.08 && rel_err var (Arrival.variance p) < 0.50)

let prop_equal_seeds_equal_streams =
  QCheck.Test.make ~name:"equal seeds give byte-identical arrival sequences"
    ~count:50 (QCheck.make gen_seed) (fun seed ->
      let p = Arrival.Pareto { rate = 5.0; alpha = 1.5; cap = 100.0 } in
      let a = Arrival.times (Arrival.create ~seed p) ~n:200 in
      let b = Arrival.times (Arrival.create ~seed p) ~n:200 in
      a = b)

(* Same law driven onto two fresh schedulers: the event times seen by
   the callbacks must agree exactly, not just the drawn gaps. *)
let test_drive_deterministic_across_scheds () =
  let record () =
    let clock = Clock.create () in
    let s = Sched.create ~clock in
    Sched.attach_clock s;
    let seen = ref [] in
    (* discfs-lint: allow races "arrival callbacks run one per slice; the list is read only after Sched.run returns" *)
    Arrival.drive
      (Arrival.create ~seed:"drive-det" (Arrival.Poisson { rate = 50.0 }))
      ~sched:s ~n:100
      (fun i t -> seen := (i, t, Clock.now clock) :: !seen);
    Sched.run s;
    List.rev !seen
  in
  let a = record () and b = record () in
  Alcotest.(check int) "all arrivals fired" 100 (List.length a);
  Alcotest.(check bool) "identical (i, t_i, clock) triples" true (a = b);
  List.iter (fun (_, t, now) -> feq "callback runs at its arrival time" t now) a

let test_arrival_validation () =
  let inv f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  inv (fun () -> Arrival.create ~seed:"x" (Arrival.Poisson { rate = 0.0 }));
  inv (fun () -> Arrival.create ~seed:"x" (Arrival.Fixed (-1.0)));
  inv (fun () ->
      Arrival.create ~seed:"x" (Arrival.Pareto { rate = 1.0; alpha = 1.0; cap = 10.0 }));
  inv (fun () ->
      Arrival.create ~seed:"x" (Arrival.Pareto { rate = 1.0; alpha = 2.0; cap = 1.0 }));
  feq "fixed mean" 0.25 (Arrival.mean (Arrival.Fixed 0.25));
  feq "fixed variance" 0.0 (Arrival.variance (Arrival.Fixed 0.25));
  feq "poisson mean is 1/rate" 0.125 (Arrival.mean (Arrival.Poisson { rate = 8.0 }))

(* --- interpolated quantiles ------------------------------------------- *)

let qe = Alcotest.testable
    (fun fmt q -> Format.pp_print_string fmt (Metrics.quantile_to_string q))
    ( = )

let test_quantile_golden () =
  let h = Metrics.make_histogram [| 1.0; 2.0; 5.0; 10.0 |] in
  List.iter (Metrics.observe h)
    [ 1.0; 1.5; 1.6; 3.0; 4.0; 4.5; 4.9; 7.0; 20.0; 30.0 ];
  Alcotest.check qe "p50 interpolates inside the 2-5 bucket"
    (Metrics.Q_at 3.5) (Metrics.quantile_est h 0.5);
  Alcotest.check qe "p80 lands on the 5-10 bucket's top"
    (Metrics.Q_at 10.0) (Metrics.quantile_est h 0.8);
  Alcotest.check qe "p99 saturates: >= last edge, never a fake finite value"
    (Metrics.Q_ge 10.0) (Metrics.quantile_est h 0.99);
  Alcotest.check qe "p999 saturates too"
    (Metrics.Q_ge 10.0) (Metrics.quantile_est h 0.999);
  Alcotest.(check int) "two observations overflowed" 2 (Metrics.overflow h);
  Alcotest.(check string) "saturated rendering" ">=10"
    (Metrics.quantile_to_string (Metrics.quantile_est h 0.999));
  Alcotest.(check string) "saturated json" "\">=10\""
    (Slo.quantile_json (Metrics.quantile_est h 0.999))

let test_quantile_edges () =
  let empty = Metrics.make_histogram [| 1.0; 2.0 |] in
  Alcotest.check qe "empty histogram" Metrics.Q_empty (Metrics.quantile_est empty 0.5);
  Alcotest.(check string) "empty rendering" "n/a"
    (Metrics.quantile_to_string (Metrics.quantile_est empty 0.99));
  Alcotest.(check string) "empty json" "null"
    (Slo.quantile_json (Metrics.quantile_est empty 0.99));
  let single = Metrics.make_histogram [| 4.0 |] in
  Metrics.observe single 1.0;
  Metrics.observe single 2.0;
  Alcotest.check qe "single bucket interpolates from zero"
    (Metrics.Q_at 2.0) (Metrics.quantile_est single 0.5);
  Alcotest.check qe "single bucket top" (Metrics.Q_at 4.0)
    (Metrics.quantile_est single 1.0);
  let over = Metrics.make_histogram [| 1.0 |] in
  Metrics.observe over 5.0;
  Metrics.observe over 6.0;
  Alcotest.check qe "all-overflow histogram saturates every quantile"
    (Metrics.Q_ge 1.0) (Metrics.quantile_est over 0.1);
  let s = Slo.of_histogram over in
  Alcotest.(check int) "summary counts saturation" 2 s.Slo.saturated

(* --- the open-loop property ------------------------------------------- *)

(* A metronome offers work faster than one serial channel can serve
   it (0.1 s gaps, 0.5 s service): a closed loop would slow the
   offered rate down; the open-loop driver must instead queue, so
   arrival-to-completion latency climbs linearly with the index. *)
let test_gen_open_loop_queueing () =
  let clock = Clock.create () in
  let sched = Sched.create ~clock in
  Sched.attach_clock sched;
  let arrivals = Arrival.create ~seed:"open-loop" (Arrival.Fixed 0.1) in
  let completions = ref [] in
  let gen =
    Gen.offer ~sched ~arrivals ~ops:10 ~channels:1
      ~op:(fun i ->
        Sched.sleep sched 0.5;
        completions := (i, Clock.now clock) :: !completions;
        true)
      ()
  in
  Sched.run sched;
  let offered, completed, failed = Gen.stats_of gen in
  Alcotest.(check int) "all offered" 10 offered;
  Alcotest.(check int) "all completed" 10 completed;
  Alcotest.(check int) "none failed" 0 failed;
  Alcotest.(check int) "one histogram observation per completion" 10
    (Metrics.count gen.Gen.latencies);
  (* op i arrives at 0.1*(i+1) but completes at 0.1 + 0.5*(i+1): the
     backlog grows by 0.4 s per op — visible only open-loop. *)
  List.iter
    (fun (i, t) -> feq "completion instants show the backlog"
        (0.1 +. (0.5 *. float_of_int (i + 1))) t)
    !completions;
  feq "makespan is service-bound, not arrival-bound" 5.0 (Gen.makespan gen);
  (* Two channels halve the backlog: same offered load, faster drain. *)
  let clock2 = Clock.create () in
  let sched2 = Sched.create ~clock:clock2 in
  Sched.attach_clock sched2;
  let gen2 =
    Gen.offer ~sched:sched2
      ~arrivals:(Arrival.create ~seed:"open-loop" (Arrival.Fixed 0.1))
      ~ops:10 ~channels:2
      ~op:(fun _ -> Sched.sleep sched2 0.5; true)
      ()
  in
  Sched.run sched2;
  Alcotest.(check bool) "wider pool drains the same offered load sooner" true
    (Gen.makespan gen2 < Gen.makespan gen)

(* --- knee ------------------------------------------------------------- *)

let test_knee () =
  let iopt = Alcotest.(check (option int)) in
  iopt "last sustaining point of the initial run" (Some 1)
    (Slo.knee [ (100., 99., 0); (200., 197., 0); (300., 220., 0); (400., 390., 0) ]);
  iopt "fully sustained sweep" (Some 2)
    (Slo.knee [ (10., 10., 0); (20., 19., 0); (30., 27.5, 0) ]);
  iopt "failures disqualify" None (Slo.knee [ (10., 10., 3) ]);
  iopt "empty sweep" None (Slo.knee []);
  iopt "nothing sustained" None (Slo.knee [ (50., 10., 0) ])

(* --- scenarios -------------------------------------------------------- *)

let fast_retry =
  { Oncrpc.Rpc.base_timeout = 0.4; backoff = 2.0; max_attempts = 5; jitter = 0.1 }

let test_sweep_smoke () =
  let points, knee =
    Scenario.sweep ~seed:"test-sweep" ~clients:4 ~duration:1.5
      ~rates:[ 30.0; 90.0 ] ()
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check int) "conservation: offered = completed + failed"
        p.Scenario.sp_offered
        (p.Scenario.sp_completed + p.Scenario.sp_failed);
      Alcotest.(check int) "histogram count = completed" p.Scenario.sp_completed
        p.Scenario.sp_summary.Slo.count)
    points;
  Alcotest.(check (option int)) "both rates sustained at this scale" (Some 1) knee

let test_boot_storm_smoke () =
  let r =
    Scenario.boot_storm ~seed:"test-storm" ~clients:8 ~dirs:2 ~files_per_dir:2 ()
  in
  (* Each walk: per dir LOOKUP + READDIR, per file LOOKUP + GETATTR +
     READ — all of it must complete. *)
  let expect_ops = 8 * 2 * (2 + (3 * 2)) in
  Alcotest.(check int) "every op of every walk completed" expect_ops r.Scenario.st_ops;
  Alcotest.(check int) "no failures" 0 r.Scenario.st_failed;
  Alcotest.(check int) "summary covers every op" expect_ops
    r.Scenario.st_summary.Slo.count;
  Alcotest.(check bool) "finish spread within makespan" true
    (r.Scenario.st_spread >= 0.0 && r.Scenario.st_spread <= r.Scenario.st_makespan);
  Alcotest.(check bool) "shared subtree hits the buffer cache" true
    (r.Scenario.st_bcache_hits > r.Scenario.st_bcache_misses);
  Alcotest.(check bool) "policy memo shares verdicts across clients" true
    (r.Scenario.st_policy_hits > 0)

let churn_spec =
  {
    Scenario.cs_seed = "test-churn";
    cs_rate = 2.0;
    cs_duration = 600.0;
    cs_initial_clients = 4;
    cs_join_every = 60.0;
    cs_leave_every = 90.0;
    cs_crash_at = Some 300.0;
    cs_sa_lifetime = Some 16;
    cs_workers = 4;
    cs_queue_depth = 64;
    cs_retry = Some fast_retry;
  }

(* The long-horizon churn run: ten virtual minutes of Poisson load
   while clients join and leave, the server crashes and restarts
   mid-load, SAs rekey, and every conservation law must hold. *)
let test_churn_long_horizon () =
  let r = Scenario.churn ~spec:churn_spec () in
  Alcotest.(check int) "conservation: offered = completed + failed"
    r.Scenario.ch_offered
    (r.Scenario.ch_completed + r.Scenario.ch_failed);
  Alcotest.(check int) "offered everything" 1200 r.Scenario.ch_offered;
  Alcotest.(check int) "one latency observation per completion"
    r.Scenario.ch_completed r.Scenario.ch_hist_count;
  Alcotest.(check bool) "pool executed at least every completed op" true
    (r.Scenario.ch_executed >= r.Scenario.ch_completed);
  (* Client-id uniqueness: allocation is per server incarnation, so
     the law is over (incarnation, id) pairs — none may repeat, even
     though raw ids restart from zero after the crash. *)
  let ids = r.Scenario.ch_client_ids in
  Alcotest.(check int) "no (incarnation, client-id) pair reused"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "both incarnations allocated ids" true
    (List.exists (fun (e, _) -> e = 0) ids && List.exists (fun (e, _) -> e = 1) ids);
  Alcotest.(check int) "exactly one crash" 1 r.Scenario.ch_crashes;
  Alcotest.(check bool) "clients re-homed after the crash" true
    (r.Scenario.ch_reattaches >= 1);
  Alcotest.(check bool) "joins happened" true (r.Scenario.ch_joins > 0);
  Alcotest.(check bool) "leaves happened" true (r.Scenario.ch_leaves > 0);
  Alcotest.(check bool) "SAs rekeyed under load" true (r.Scenario.ch_rekeys > 0);
  Alcotest.(check int) "every member detached by the horizon"
    (r.Scenario.ch_leaves + r.Scenario.ch_final_active)
    r.Scenario.ch_detaches;
  Alcotest.(check bool) "load kept completing despite the churn" true
    (float_of_int r.Scenario.ch_completed
     >= 0.95 *. float_of_int r.Scenario.ch_offered)

let test_churn_deterministic () =
  let a = Scenario.churn ~spec:churn_spec () in
  let b = Scenario.churn ~spec:churn_spec () in
  Alcotest.(check int) "same completions" a.Scenario.ch_completed b.Scenario.ch_completed;
  Alcotest.(check int) "same failures" a.Scenario.ch_failed b.Scenario.ch_failed;
  Alcotest.(check string) "same latency summary, byte for byte"
    (Slo.render a.Scenario.ch_summary)
    (Slo.render b.Scenario.ch_summary);
  Alcotest.(check bool) "same client-id allocation history" true
    (a.Scenario.ch_client_ids = b.Scenario.ch_client_ids);
  Alcotest.(check int) "same rekeys" a.Scenario.ch_rekeys b.Scenario.ch_rekeys;
  feq "same makespan" a.Scenario.ch_makespan b.Scenario.ch_makespan

let suite =
  [
    QCheck_alcotest.to_alcotest prop_poisson_moments;
    QCheck_alcotest.to_alcotest prop_pareto_moments;
    QCheck_alcotest.to_alcotest prop_equal_seeds_equal_streams;
    ("drive: deterministic across schedulers", `Quick, test_drive_deterministic_across_scheds);
    ("arrival validation + analytic moments", `Quick, test_arrival_validation);
    ("quantile golden", `Quick, test_quantile_golden);
    ("quantile edges", `Quick, test_quantile_edges);
    ("open-loop queueing", `Quick, test_gen_open_loop_queueing);
    ("knee", `Quick, test_knee);
    ("sweep smoke", `Quick, test_sweep_smoke);
    ("boot storm smoke", `Quick, test_boot_storm_smoke);
    ("churn long-horizon", `Quick, test_churn_long_horizon);
    ("churn deterministic", `Quick, test_churn_deterministic);
  ]
