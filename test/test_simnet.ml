(* Virtual clock, link timing model and stats. *)

module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats
module Link = Simnet.Link

let feq ?(eps = 1e-12) a b = Float.abs (a -. b) < eps

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check bool) "starts at 0" true (feq (Clock.now c) 0.0);
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  Alcotest.(check bool) "accumulates" true (feq (Clock.now c) 1.75);
  Clock.reset c;
  Alcotest.(check bool) "reset" true (feq (Clock.now c) 0.0);
  Alcotest.check_raises "negative dt" (Invalid_argument "Clock.advance: negative dt") (fun () ->
      Clock.advance c (-1.0))

let test_clock_time () =
  let c = Clock.create () in
  let result, dt = Clock.time c (fun () -> Clock.advance c 0.5; 42) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "measured" true (feq dt 0.5)

let test_link_timing () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Simnet.Cost.default ~stats in
  Link.transmit link 12500;
  (* latency + 12500 bytes at 12.5 MB/s = 70us + 1ms *)
  Alcotest.(check bool) "transfer time" true (feq (Clock.now clock) (0.00007 +. 0.001));
  Alcotest.(check int) "bytes counted" 12500 (Stats.get stats "link.bytes");
  Alcotest.(check int) "messages counted" 1 (Stats.get stats "link.messages");
  Alcotest.check_raises "negative size" (Invalid_argument "Link.transmit: negative size")
    (fun () -> Link.transmit link (-1))

let test_local_link_is_free () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost:Cost.local_only ~stats in
  Link.transmit link 1_000_000;
  Alcotest.(check bool) "no time" true (feq (Clock.now clock) 0.0)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  Alcotest.(check int) "incr" 2 (Stats.get s "a");
  Alcotest.(check int) "add" 10 (Stats.get s "b");
  Alcotest.(check int) "missing" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int))) "counters sorted" [ ("a", 2); ("b", 10) ]
    (Trace.Metrics.counters s);
  Trace.Metrics.reset s;
  Alcotest.(check int) "reset" 0 (Stats.get s "a")

let prop_link_time_monotone =
  QCheck.Test.make ~name:"bigger message, more time" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_bound 100000) (int_bound 100000)))
    (fun (a, b) ->
      let time n =
        let clock = Clock.create () in
        let link = Link.create ~clock ~cost:Cost.default ~stats:(Stats.create ()) in
        Link.transmit link n;
        Clock.now clock
      in
      (a <= b) = (time a <= time b))

let suite =
  [
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "clock timing" `Quick test_clock_time;
    Alcotest.test_case "link timing" `Quick test_link_timing;
    Alcotest.test_case "local link free" `Quick test_local_link_is_free;
    Alcotest.test_case "stats" `Quick test_stats;
    QCheck_alcotest.to_alcotest prop_link_time_monotone;
  ]
