(* Counter-catalogue fixture source, scanned as text (never compiled).
   A name in a comment is not a count: Stats.incr s "fixture.in_comment" *)

let count stats m name =
  Simnet.Stats.incr stats "fixture.documented";
  Stats.add (stats_of stats) "fixture.left" 2;
  Trace.Metrics.incr m
    "fixture.right";
  Metrics.incr m ("span." ^ name);
  Stats.incr stats "fixture.undocumented"
