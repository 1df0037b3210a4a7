(* Conditions beyond identity (paper §3.1): "the access policy can
   consider factors such as time-of-day, so that, for example,
   leisure-related files may not be available during office hours."

   The KeyNote condition language expresses this directly; no code
   changes in the filesystem are needed.
   Run with: dune exec examples/office_hours.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  (* The simulated wall clock hour is adjustable from the outside. *)
  let hour = ref 9 in
  let d = Cluster.make ~seed:"office-hours" ~hour:(fun () -> !hour) () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin in

  (* Two files: one for work, one decidedly not. *)
  let report, _, _ = CC.create admin ~dir:root "quarterly-report.txt" () in
  CC.write_all admin report "Q2 numbers: up and to the right.\n";
  let games, _, _ = CC.create admin ~dir:root "adventure-walkthrough.txt" () in
  CC.write_all admin games "XYZZY. Then head north.\n";

  let employee = CC.attach d ~identity:(Cluster.new_identity d) ~uid:300 () in
  let cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal employee))
      ~conditions:
        (Printf.sprintf
           "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"R\";\n\
            \t(app_domain == \"DisCFS\") && (HANDLE == \"%d\")\n\
            \t&& (hour < 9 || hour >= 17) -> \"R\";"
           report.Proto.ino games.Proto.ino)
      ~comment:"work files always; leisure files outside 09:00-17:00" ()
  in
  (match CC.submit_credential employee cred with Ok _ -> () | Error e -> failwith e);
  say "Credential: report readable always, walkthrough only off-hours.";

  let try_read label fh =
    match CC.read employee fh ~off:0 ~count:16 with
    | _, data -> say "  %02d:00 %-26s -> %S" !hour label data
    | exception Proto.Nfs_error s ->
      say "  %02d:00 %-26s -> %s" !hour label (Proto.status_to_string s)
  in
  let at h =
    hour := h;
    (* The policy cache memoises per-handle results; a real deployment
       flushes it on policy-relevant environment changes (the paper's
       prototype simply kept cached results briefly). *)
    Discfs.Policy_cache.flush (Discfs.Server.cache (Cluster.node_server d 0));
    try_read "quarterly-report.txt" report;
    try_read "adventure-walkthrough.txt" games
  in
  say "During office hours:";
  at 11;
  say "In the evening:";
  at 20;
  say "Early morning:";
  at 7;
  say "@.office_hours: OK"
