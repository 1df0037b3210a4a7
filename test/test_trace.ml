(* The observability layer itself: metrics primitives under property
   tests (bucket monotonicity, count/sum conservation under merge),
   span-stack balance under randomized interleavings, ring-buffer
   retention, sink delivery, and the end-to-end determinism the
   golden-trace file relies on. *)

module Metrics = Trace.Metrics
module CC = Discfs.Cluster_client

(* A tracer over an explicit hand-cranked clock. *)
let make_tracer ?capacity ?metrics () =
  let now = ref 0. in
  let t = Trace.create ?capacity ?metrics ~now:(fun () -> !now) () in
  (t, now)

(* --- metrics: counters and gauges ----------------------------------- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.add m "x" 41;
  Alcotest.(check int) "incr accumulates" 42 (Metrics.counter m "x");
  Alcotest.(check bool) "absent gauge" true (Metrics.gauge m "g" = None);
  Metrics.set_gauge m "g" 1.5;
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check bool) "gauge keeps last" true (Metrics.gauge m "g" = Some 2.5);
  Alcotest.(check (list string)) "sorted names" [ "a"; "x" ]
    (Metrics.incr m "a";
     List.map fst (Metrics.counters m));
  Metrics.reset m;
  Alcotest.(check int) "reset clears" 0 (Metrics.counter m "x")

(* Every sealed packet bumps counters, so an increment of an existing
   counter must not allocate. *)
let test_counter_increment_allocates_nothing () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.add m "y" 1;
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          Metrics.incr m "x";
          Metrics.add m "y" 2
        done)
  in
  Alcotest.(check (float 0.)) "no minor words" 0. (words -. baseline);
  Alcotest.(check int) "counted" 1001 (Metrics.counter m "x")

(* --- metrics: histogram properties ----------------------------------- *)

let test_bucket_validation () =
  let m = Metrics.create () in
  let bad b = Alcotest.check_raises "rejected" (Invalid_argument "Metrics.histogram: bucket bounds not strictly increasing") (fun () -> ignore (Metrics.histogram m ~buckets:b "h")) in
  bad [| 1.; 1. |];
  bad [| 2.; 1. |];
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Metrics.histogram: empty buckets") (fun () ->
      ignore (Metrics.histogram m ~buckets:[||] "h2"));
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Metrics.histogram: non-finite bucket bound") (fun () ->
      ignore (Metrics.histogram m ~buckets:[| 1.; infinity |] "h3"));
  (* default grid is itself strictly increasing *)
  let b = Metrics.default_buckets in
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool) "default grid monotone" true (b.(i) > b.(i - 1))
  done

(* Reference bucketing: first bound >= v, else overflow. *)
let ref_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if bounds.(i) >= v then i else go (i + 1) in
  go 0

let gen_bounds =
  (* strictly increasing positive bounds, built from positive gaps *)
  QCheck.Gen.(
    map
      (fun gaps ->
        let acc = ref 0. in
        Array.of_list
          (List.map
             (fun g ->
               acc := !acc +. (float_of_int g /. 16.) +. 0.0625;
               !acc)
             gaps))
      (list_size (int_range 1 12) (int_range 0 64)))

let gen_values = QCheck.Gen.(list_size (int_range 0 200) (float_bound_inclusive 10.))

let prop_histogram_conservation =
  QCheck.Test.make ~name:"histogram conserves count/sum and buckets correctly"
    ~count:200
    (QCheck.make QCheck.Gen.(pair gen_bounds gen_values))
    (fun (bounds, values) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m ~buckets:bounds "h" in
      List.iter (Metrics.observe h) values;
      let counts = Metrics.bucket_counts h in
      (* every observation landed in exactly the reference bucket *)
      let expect = Array.make (Array.length bounds + 1) 0 in
      List.iter (fun v -> let i = ref_index bounds v in expect.(i) <- expect.(i) + 1) values;
      counts = expect
      && Metrics.count h = List.length values
      && abs_float (Metrics.sum h -. List.fold_left ( +. ) 0. values) < 1e-9
      && Array.fold_left ( + ) 0 counts = Metrics.count h)

let prop_histogram_merge =
  QCheck.Test.make ~name:"merge = histogram of concatenated observations" ~count:200
    (QCheck.make QCheck.Gen.(triple gen_bounds gen_values gen_values))
    (fun (bounds, xs, ys) ->
      let m = Metrics.create () in
      let ha = Metrics.histogram m ~buckets:bounds "a" in
      let hb = Metrics.histogram m ~buckets:bounds "b" in
      let hc = Metrics.histogram m ~buckets:bounds "c" in
      List.iter (Metrics.observe ha) xs;
      List.iter (Metrics.observe hb) ys;
      List.iter (Metrics.observe hc) (xs @ ys);
      let hm = Metrics.merge ha hb in
      Metrics.bucket_counts hm = Metrics.bucket_counts hc
      && Metrics.count hm = Metrics.count hc
      && abs_float (Metrics.sum hm -. Metrics.sum hc) < 1e-9)

let test_merge_rejects_mismatch () =
  let m = Metrics.create () in
  let a = Metrics.histogram m ~buckets:[| 1.; 2. |] "a" in
  let b = Metrics.histogram m ~buckets:[| 1.; 3. |] "b" in
  Alcotest.check_raises "incompatible bounds"
    (Invalid_argument "Metrics.merge: incompatible bucket bounds") (fun () ->
      ignore (Metrics.merge a b))

let test_cumulative_and_quantile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 2.; 4. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 0.7; 1.5; 3.0; 100.0 ];
  Alcotest.(check (array int)) "cumulative monotone" [| 2; 3; 4; 5 |] (Metrics.cumulative h);
  let q p = Metrics.quantile_to_string (Metrics.quantile_est h p) in
  Alcotest.(check string) "p20 interpolates in the first bucket" "0.5" (q 0.2);
  Alcotest.(check string) "median interpolates in its bucket" "1.5" (q 0.5);
  Alcotest.(check string) "p90 lands in overflow" ">=4" (q 0.9);
  Alcotest.(check string) "p100 saturates at the last edge" ">=4" (q 1.0);
  Alcotest.(check bool) "quantile monotone in q" true
    (match (Metrics.quantile_est h 0.1, Metrics.quantile_est h 0.5) with
    | Metrics.Q_at a, Metrics.Q_at b -> a <= b
    | _ -> false)

(* --- spans: balance and nesting under random interleavings ----------- *)

(* Run a random well-bracketed begin/end program against the tracer,
   with clock advances in between, then check the recorded spans are
   balanced and properly nested. Op > 0: push a span; op = 0: pop if
   possible. *)
let run_program (t, now) ops =
  let stack = ref [] in
  List.iter
    (fun op ->
      now := !now +. 0.25;
      if op > 0 || !stack = [] then
        stack := Trace.begin_span t (Printf.sprintf "s%d" (op mod 5)) :: !stack
      else begin
        match !stack with
        | id :: rest ->
          Trace.end_span t id;
          stack := rest
        | [] -> ()
      end)
    ops;
  List.iter (fun id -> now := !now +. 0.25; Trace.end_span t id) !stack

let prop_span_balance =
  QCheck.Test.make ~name:"span stack balances under random interleavings" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) (int_range 0 3)))
    (fun ops ->
      let (t, now) = make_tracer () in
      run_program (t, now) ops;
      let spans = Trace.spans t in
      (* every begin got exactly one end, ids unique *)
      Trace.depth t = 0
      && List.length spans
         = List.length
             (List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.id) spans))
      (* intervals well-formed and children strictly inside parents *)
      && List.for_all
           (fun (s : Trace.span) ->
             s.Trace.t_begin <= s.Trace.t_end && s.Trace.self >= 0.)
           spans
      && List.for_all
           (fun (s : Trace.span) ->
             s.Trace.parent = -1
             || List.exists
                  (fun (p : Trace.span) ->
                    p.Trace.id = s.Trace.parent
                    && p.Trace.t_begin <= s.Trace.t_begin
                    && s.Trace.t_end <= p.Trace.t_end)
                  spans)
           spans
      (* no crossing: any two intervals are nested or disjoint *)
      && List.for_all
           (fun (a : Trace.span) ->
             List.for_all
               (fun (b : Trace.span) ->
                 a.Trace.id = b.Trace.id
                 || a.Trace.t_end <= b.Trace.t_begin
                 || b.Trace.t_end <= a.Trace.t_begin
                 || (a.Trace.t_begin <= b.Trace.t_begin && b.Trace.t_end <= a.Trace.t_end)
                 || (b.Trace.t_begin <= a.Trace.t_begin && a.Trace.t_end <= b.Trace.t_end))
               spans)
           spans)

(* self-time: parent self = duration minus direct children *)
let test_self_time () =
  let (t, now) = make_tracer () in
  Trace.span t "parent" (fun () ->
      now := !now +. 1.;
      Trace.span t "child1" (fun () -> now := !now +. 2.);
      now := !now +. 3.;
      Trace.span t "child2" (fun () -> now := !now +. 4.);
      now := !now +. 5.);
  let find name = List.find (fun (s : Trace.span) -> s.Trace.name = name) (Trace.spans t) in
  let p = find "parent" in
  Alcotest.(check (float 1e-9)) "parent duration" 15. (p.Trace.t_end -. p.Trace.t_begin);
  Alcotest.(check (float 1e-9)) "parent self" 9. p.Trace.self;
  Alcotest.(check (float 1e-9)) "child1 self" 2. (find "child1").Trace.self;
  (* self-times of a trace sum to total elapsed time *)
  let total = List.fold_left (fun acc (s : Trace.span) -> acc +. s.Trace.self) 0. (Trace.spans t) in
  Alcotest.(check (float 1e-9)) "self times sum to wall" 15. total

let test_misuse_raises () =
  let (t, _) = make_tracer () in
  (try
     Trace.end_span t 99;
     Alcotest.fail "end without begin must raise"
   with Invalid_argument _ -> ());
  let a = Trace.begin_span t "a" in
  let b = Trace.begin_span t "b" in
  (try
     Trace.end_span t a;
     Alcotest.fail "crossing end must raise"
   with Invalid_argument _ -> ());
  Trace.end_span t b;
  Trace.end_span t a;
  Alcotest.(check int) "balanced after recovery" 0 (Trace.depth t)

let test_span_closes_on_exception () =
  let (t, _) = make_tracer () in
  (try Trace.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Trace.depth t);
  Alcotest.(check int) "span recorded" 1 (List.length (Trace.spans t))

let test_null_tracer_noops () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  let id = Trace.begin_span t "x" in
  Trace.end_span t id;
  Trace.instant t "y";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans t));
  Alcotest.(check int) "depth 0" 0 (Trace.depth t);
  Alcotest.(check string) "span passes value through" "v"
    (Trace.span t "z" (fun () -> "v"))

(* --- ring buffer and sink -------------------------------------------- *)

let test_ring_retention () =
  let (t, _) = make_tracer ~capacity:4 () in
  let seen = ref [] in
  Trace.set_sink t (Some (fun s -> seen := s.Trace.name :: !seen));
  for i = 1 to 10 do
    Trace.instant t (Printf.sprintf "e%d" i)
  done;
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans t) in
  Alcotest.(check (list string)) "last capacity spans retained" [ "e7"; "e8"; "e9"; "e10" ] names;
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  Alcotest.(check int) "sink saw everything" 10 (List.length !seen);
  Trace.reset t;
  Alcotest.(check int) "reset empties ring" 0 (List.length (Trace.spans t));
  Alcotest.(check int) "reset clears dropped" 0 (Trace.dropped t)

let test_metrics_hookup () =
  let m = Metrics.create () in
  let (t, now) = make_tracer ~metrics:m () in
  Trace.span t "op" (fun () -> now := !now +. 0.001);
  Trace.span t "op" (fun () -> now := !now +. 0.002);
  Alcotest.(check int) "span counter" 2 (Metrics.counter m "span.op");
  let h = Metrics.histogram m "span.self.op" in
  Alcotest.(check int) "histogram count" 2 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "histogram sum = total self" 0.003 (Metrics.sum h)

(* --- forest reconstruction and rendering ------------------------------ *)

let test_forest_and_render () =
  let (t, now) = make_tracer () in
  let tick () = now := !now +. 1. in
  Trace.span t "root" (fun () ->
      tick ();
      Trace.span t "leaf" (fun () -> tick ());
      Trace.span t "leaf" (fun () -> tick ());
      Trace.span t "leaf" (fun () -> tick ());
      Trace.span t "other" (fun () -> tick ()));
  Trace.instant t "tail";
  let forest = Trace.forest (Trace.spans t) in
  Alcotest.(check int) "two roots" 2 (List.length forest);
  Alcotest.(check string) "collapsed rendering"
    "root\n  leaf x3\n  other\ntail\n"
    (Trace.render_forest forest);
  Alcotest.(check string) "uncollapsed rendering"
    "root\n  leaf\n  leaf\n  leaf\n  other\ntail\n"
    (Trace.render_forest ~collapse:false forest)

let test_jsonl () =
  let (t, now) = make_tracer () in
  Trace.span t "a\"b" ~attrs:[ ("k", "v1") ] (fun () -> now := !now +. 0.5);
  let s = List.hd (Trace.spans t) in
  Alcotest.(check string) "json escaping and shape"
    "{\"id\":1,\"parent\":-1,\"name\":\"a\\\"b\",\"begin\":0.000000000,\"end\":0.500000000,\"self\":0.500000000,\"attrs\":{\"k\":\"v1\"}}"
    (Trace.span_to_jsonl s)

(* --- end-to-end determinism ------------------------------------------ *)

(* Two identical traced deployments must produce byte-identical span
   forests — the property the golden file and latency_breakdown bench
   rely on. *)
let test_traced_run_deterministic () =
  let run () =
    let d = Discfs.Cluster.make ~tracing:true () in
    let bob = Discfs.Cluster.new_identity d in
    let client = CC.attach d ~identity:bob () in
    let cred =
      Discfs.Cluster.admin_issue d
        ~licensees:(Printf.sprintf "%S" (CC.principal client))
        ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ()
    in
    (match CC.submit_credential client cred with
    | Ok _ -> ()
    | Error e -> failwith e);
    let _ = CC.create client ~dir:(CC.root client) "f" () in
    Trace.render_forest (Trace.forest (Trace.spans (Discfs.Cluster.trace d)))
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical forests" a b;
  Alcotest.(check bool) "non-trivial trace" true (String.length a > 100)

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "counter increments allocate nothing" `Quick
      test_counter_increment_allocates_nothing;
    Alcotest.test_case "bucket monotonicity enforced" `Quick test_bucket_validation;
    QCheck_alcotest.to_alcotest prop_histogram_conservation;
    QCheck_alcotest.to_alcotest prop_histogram_merge;
    Alcotest.test_case "merge rejects mismatched buckets" `Quick test_merge_rejects_mismatch;
    Alcotest.test_case "cumulative and quantile" `Quick test_cumulative_and_quantile;
    QCheck_alcotest.to_alcotest prop_span_balance;
    Alcotest.test_case "self-time accounting" `Quick test_self_time;
    Alcotest.test_case "unbalanced end raises" `Quick test_misuse_raises;
    Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
    Alcotest.test_case "null tracer is a no-op" `Quick test_null_tracer_noops;
    Alcotest.test_case "ring retention + sink" `Quick test_ring_retention;
    Alcotest.test_case "metrics hookup" `Quick test_metrics_hookup;
    Alcotest.test_case "forest and rendering" `Quick test_forest_and_render;
    Alcotest.test_case "jsonl export" `Quick test_jsonl;
    Alcotest.test_case "traced run is deterministic" `Quick test_traced_run_deterministic;
  ]
