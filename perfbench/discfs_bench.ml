(* The DisCFS benchmark executable: set up one workload, run it, check
   its outputs and print its metrics (see report.ml for the format).

     discfs_bench --workload admit|walk|mixed --seed N --seconds S
                  --trace 0|1 [--window-only] [--cluster-tracing]

   --trace 0 runs the timed window for S wall seconds (at least the
   virtual window) and reports the end-to-end metrics. --trace 1 runs
   the virtual window only, with the benchmark's wall-time spans and
   the layer probes, and also reports the per-layer metrics. A failed
   output check exits 3 without printing metrics. *)

let usage =
  "discfs_bench --workload admit|walk|mixed --seed N --seconds S --trace 0|1 [--window-only] \
   [--cluster-tracing]"

type prepared = {
  run : unit -> Outcome.t;
  facts : (string * string) list;  (** how the workload is set up, for the record *)
}

let cost_digest () =
  let c = Simnet.Cost.default in
  [ c.disk_seek; c.disk_transfer_bps; c.disk_op_overhead; c.net_latency; c.net_bandwidth_bps;
    c.syscall; c.char_io; c.rpc_overhead; c.rpc_per_byte; c.esp_per_packet; c.esp_per_byte;
    c.esp_tdes_per_byte; c.ike_handshake; c.ike_rekey; c.keynote_query; c.keynote_cached;
    c.credential_verify ]
  |> List.map (Printf.sprintf "%h")
  |> String.concat ","
  |> Dcrypto.Sha1.hex

let prepare ~workload ~seed ~seconds ~window_only ~tracing ~setup_spans ~spans =
  let setup_spans = Some setup_spans in
  match workload with
  | "admit" ->
    let st = Admit.setup ~seed ~spans:setup_spans ~tracing in
    { run = (fun () -> Admit.run st ~spans ~seconds ~window_only);
      facts =
        [ ("loop", "closed, 1 user at a time");
          ("op", "one onboarding");
          ("window", Printf.sprintf "%d onboardings" Admit.window);
          ( "working_set",
            Printf.sprintf "%d pool files; credential store grows by 2 per onboarding"
              Admit.pool_files ) ] }
  | "walk" ->
    let st = Walk.setup ~seed ~spans:setup_spans ~tracing in
    Walk.warm st ~spans:setup_spans;
    { run = (fun () -> Walk.run st ~seconds ~window_only);
      facts =
        [ ("loop", Printf.sprintf "closed, %d readers" Walk.readers);
          ("op", "one file delivered");
          ("window", Printf.sprintf "%d passes" Walk.window_passes);
          ( "working_set",
            Printf.sprintf "%d files, %d bytes vs %d-block buffer cache; %d (reader, file) pairs vs \
                            128-entry policy memo per frontend"
              (Walk.dirs * Walk.files_per_dir) st.Walk.expect.bytes Walk.cache_blocks
              (Walk.readers * Walk.dirs * Walk.files_per_dir) ) ] }
  | _ ->
    let st = Mixed.setup ~seed ~spans:setup_spans ~tracing in
    Mixed.warm st ~spans:setup_spans;
    { run = (fun () -> Mixed.run st ~seconds ~window_only);
      facts =
        [ ("loop", Printf.sprintf "open, Poisson %.0f ops/s over %d clients" Mixed.rate Mixed.clients);
          ("op", "one GETATTR, READ or WRITE of 8 KB");
          ("window", Printf.sprintf "%d arrivals" Mixed.window);
          ( "working_set",
            Printf.sprintf "%d blocks vs %d-block buffer cache; %d private handles per client vs \
                            128-entry policy memo"
              (Mixed.clients * Mixed.files_per_client * Mixed.file_blocks) Mixed.cache_blocks
              Mixed.files_per_client ) ] }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- end-to-end ------------------------------------------------------- *)

let end_to_end r (o : Outcome.t) ~setup_s =
  let open Report in
  let w = o.window in
  add r "setup_s" "s" setup_s;
  add r "ops_per_s" "ops/s" (float_of_int o.timed_ops /. o.timed_wall);
  add r "timed_wall_s" "s" o.timed_wall;
  add r ~cls:Virtual "vops_per_s" "ops/s" (float_of_int w.ops /. w.vseconds);
  add r ~cls:Virtual "vlat_p50_ms" "ms" (Meter.median w.vlat *. 1e3);
  add r ~cls:Virtual "vlat_mean_ms" "ms" (List.fold_left ( +. ) 0. w.vlat /. float_of_int w.ops *. 1e3);
  (match Meter.tail w.vlat with
  | Some (p, v, beyond) ->
    add r ~cls:Virtual "vlat_tail_ms" "ms" (v *. 1e3);
    info "vlat_tail" "p%.0f of %d window ops, %d beyond" (p *. 100.) w.ops beyond
  | None -> fail "window of %d ops is too small for a tail percentile" w.ops);
  (* Any failed operation aborts the run, so a finished run has none. *)
  add r "fail_ratio" "ratio" 0.;
  add r "heap_peak_mb" "MB" w.heap_peak_mb;
  add r "alloc_words_per_op" "words" (w.alloc_words /. float_of_int w.ops);
  add r "window_wall_s" "s" w.wall

(* --- per layer -------------------------------------------------------- *)

let admit_sample ~seed =
  let spans = Meter.spans () in
  let st = Admit.setup ~seed ~spans:None ~tracing:true in
  (spans, Admit.run st ~spans:(Some spans) ~seconds:0. ~window_only:true ~window:16)

(* Exact counts and virtual-time quantiles over the virtual window:
   printed by every measured run, so run.py can compare an untraced
   run with a traced one. *)
let window_layer r (w : Outcome.window) =
  let open Report in
  let count k = List.assoc k w.counts in
  List.iter (fun (k, v) -> add r ~cls:Virtual (k ^ "_per_op") "count" (ratio v w.ops)) w.counts;
  let hits = count "keynote.cache_hits" and cold = count "keynote.queries" in
  add r ~cls:Virtual "policy_hit_ratio" "ratio" (ratio hits (hits + cold));
  info "policy_hit_ratio.base" "%d memo hits of %d policy checks" hits (hits + cold);
  let bh = count "bcache.hits" and bm = count "bcache.misses" in
  add r ~cls:Virtual "bcache_hit_ratio" "ratio" (ratio bh (bh + bm));
  info "bcache_hit_ratio.base" "%d hits of %d block lookups" bh (bh + bm);
  add r ~cls:Virtual "wire_efficiency" "ratio" (ratio w.file_bytes (count "link.bytes"));
  info "wire_efficiency.base" "%d file bytes of %d link bytes" w.file_bytes (count "link.bytes");
  add r ~cls:Virtual "rpc.queue_wait_p99_ms" "ms" (List.assoc "rpc.queue_wait_p99" w.histograms *. 1e3);
  add r ~cls:Virtual "rpc.queue_service_p50_ms" "ms"
    (List.assoc "rpc.queue_service_p50" w.histograms *. 1e3)

let per_layer r (o : Outcome.t) ~setup_spans ~onboarding ~probes =
  let open Report in
  List.iter
    (fun n ->
      add r (Printf.sprintf "setup.%s_s" n) "s"
        (List.fold_left ( +. ) 0. (Meter.samples setup_spans ("setup." ^ n))))
    [ "cluster"; "fs_build"; "attach"; "warm" ];
  let spans, (sample : Outcome.t) = onboarding in
  List.iter
    (fun n -> add r (Printf.sprintf "admit.%s_ms" n) "ms" (Meter.median (Meter.samples spans n) *. 1e3))
    [ "keygen"; "issue"; "attach"; "submit"; "first_read"; "deny" ];
  (let submits = Meter.samples spans "submit" in
   let n = List.length submits in
   let tenth = max 1 (n / 10) in
   let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
   add r "admit.submit_growth" "ratio"
     (mean (List.filteri (fun i _ -> i >= n - tenth) submits)
     /. mean (List.filteri (fun i _ -> i < tenth) submits)));
  List.iter
    (fun n ->
      add r ~cls:Virtual (Printf.sprintf "vself.%s_ms" n) "ms"
        (List.assoc ("vself." ^ n) sample.window.histograms /. float_of_int sample.window.ops *. 1e3))
    [ "ike"; "cred"; "keynote"; "net" ];
  List.iter (fun (name, us) -> add r name "us" us) probes;
  add r "gc.major_per_kop" "count" (ratio (o.window.major_gcs * 1000) o.window.ops)

let main () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let window_only = ref false and cluster_tracing = ref false in
  let specs =
    [ ("--workload", Arg.Symbol ([ "admit"; "walk"; "mixed" ], fun w -> workload := w), " workload");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S wall-clock length of the timed window");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"), " traced run (per-layer)");
      ("--window-only", Arg.Set window_only, " run the virtual window only");
      ( "--cluster-tracing",
        Arg.Set cluster_tracing,
        " build the cluster with in-program tracing on (see NOTES.md: aborts on walk and mixed)" ) ]
  in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seed =
    match (!workload, !seed) with
    | "", _ | _, None ->
      prerr_endline usage;
      exit 2
    | _, Some s -> s
  in
  let setup_spans = Meter.spans () in
  let spans = if !trace then Some (Meter.spans ()) else None in
  let p =
    prepare ~workload:!workload ~seed ~seconds:!seconds ~window_only:(!window_only || !trace)
      ~tracing:(!cluster_tracing || (!trace && !workload = "admit"))
      ~setup_spans ~spans
  in
  let setup_s = Meter.seconds_since Meter.process_start in
  let o = p.run () in
  let r = Report.create () in
  end_to_end r o ~setup_s;
  window_layer r o.window;
  if !trace then begin
    let onboarding =
      match spans with
      | Some s when !workload = "admit" -> (s, o)
      | _ -> admit_sample ~seed
    in
    per_layer r o ~setup_spans ~onboarding ~probes:(Probes.all ())
  end;
  Report.info "attempted" "%d" o.timed_ops;
  Report.info "failed" "0";
  List.iter (fun (k, v) -> Report.info k "%s" v) p.facts;
  Report.info "servers" "%d" Fixture.servers;
  Report.info "cost_model_sha1" "%s" (cost_digest ());
  Report.print r

let () =
  try main ()
  with Report.Check_failed msg ->
    Printf.eprintf "discfs_bench: output check failed: %s\n" msg;
    exit 3
