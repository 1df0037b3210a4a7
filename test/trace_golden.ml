(* Golden-trace harness: run a small fixed workload (1 attach +
   1 create + 1 read) on a traced DisCFS deployment and print the
   complete span forest — names and nesting only, no durations, so
   the golden survives cost-model recalibration but breaks loudly
   when an instrumentation point appears, disappears or moves.

   The checked-in expectation is test/trace_golden.expected; after an
   intentional instrumentation change, refresh it with
     dune build @runtest-trace --auto-promote *)

module CC = Discfs.Cluster_client

let () =
  let d = Discfs.Cluster.make ~tracing:true () in
  let bob = Discfs.Cluster.new_identity d in
  let client = CC.attach d ~identity:bob () in
  (* Setup: the administrator grants the user RWX over the volume
     (one discfs.submit RPC), as in the paper's evaluation. *)
  let cred =
    Discfs.Cluster.admin_issue d
      ~licensees:(Printf.sprintf "%S" (CC.principal client))
      ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ()
  in
  (match CC.submit_credential client cred with
  | Ok _ -> ()
  | Error e -> failwith e);
  let fh, _attr, _cred = CC.create client ~dir:(CC.root client) "hello.txt" () in
  let _attr, data = CC.read client fh ~off:0 ~count:4096 in
  assert (data = "");
  print_string "# golden trace: attach + create + read (names and nesting only)\n";
  print_string (Span_forest.render (Span_forest.forest (Trace.spans (Discfs.Cluster.trace d))));
  Printf.printf "# spans: %d, open: %d, dropped: %d\n"
    (List.length (Trace.spans (Discfs.Cluster.trace d)))
    (Trace.depth (Discfs.Cluster.trace d))
    (Trace.dropped (Discfs.Cluster.trace d))
