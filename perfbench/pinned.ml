(* Outputs of the default seed (7), pinned from the commit that introduced
   the benchmark. The verification pass of a seed-7 run compares its first
   run against these, so a change that alters what a workload computes is
   reported as incorrect rather than timed.

   Workload -> (outcome, event-stream digest); for the sweep, the MD5 of
   its captured tables, which do not depend on the seed. *)
let expected =
  [
    ( "gossip-n128",
      ( "sent=647204 delivered=582915 leader=3 stabilized_at=- max_susp=1",
        "84f8732db7a62fba" ) );
    ( "gossip-n128-k2",
      ( "sent=647204 delivered=582915 leader=3 stabilized_at=- max_susp=1",
        "84f8732db7a62fba" ) );
    ( "relay-fattree-faults",
      ( "sent=457007 delivered=451302 leader=- stabilized_at=- max_susp=365",
        "228783474fe708d2" ) );
    ("sweep-quick", ("c02f82f8febef0e1edb92822ceea3f4d", "-"));
  ]
