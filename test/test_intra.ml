(* Tests for deterministic intra-run parallelism (DESIGN.md §18): sharded
   conservative-window execution must be observationally invisible. The
   digest (an FNV fold over the complete event stream) and the whole
   result record must be identical for intra_domains 1/2/4, on both
   scheduler backends, for every flavour of run the driver parallelizes —
   plain gossip, the relay tier, a faulted plan, a routed topology,
   fair-lossy channels — and
   the plan-free gossip stream must still be the exact pinned digest the
   sequential engine produces. The qcheck property at the bottom is the
   window-safety certificate: no scenario oracle can return a delay below
   [Scenario.lookahead_us], so nothing sent inside a window [t, t+λ) can
   arrive inside it. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let str_t = Alcotest.string
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3

let env =
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })

let relay_env =
  let config = Omega.Config.default ~n:8 ~t:3 Omega.Config.Fig3 in
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 6 })

let busy_plan =
  Fault.Plan.(
    empty
    |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
    |> crash 0 ~at:(ms 600)
    |> recover 0 ~at:(ms 1200)
    |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))

let base =
  Harness.Run.Spec.(default |> with_horizon (sec 2) |> with_digest true)

(* Everything deterministic in a [result]: drop the two aggregate options
   (metrics is off in these specs; the checker report is itself computed
   from the stream the digest already pins). *)
let fingerprint (r : Harness.Run.result) =
  ( Option.get r.Harness.Run.digest,
    ( r.Harness.Run.stabilized_at,
      r.Harness.Run.final_leader,
      r.Harness.Run.messages_sent,
      r.Harness.Run.messages_delivered,
      r.Harness.Run.max_susp_level,
      r.Harness.Run.min_sending_round ),
    ( r.Harness.Run.re_elections,
      r.Harness.Run.leadership_epochs,
      r.Harness.Run.max_round_state,
      r.Harness.Run.recoveries,
      List.length r.Harness.Run.samples ) )

let run ~spec ~env ~intra ~seed =
  Harness.Run.run
    ~spec:(Harness.Run.Spec.with_intra_domains intra spec)
    ~env ~seed ()

(* The workhorse: the full fingerprint — digest first — must coincide for
   intra 1/2/4 on both backends, and intra 1 must equal the plain spec
   (the sequential path, bit for bit). *)
let assert_invariant ?(seed = 7L) ~name spec env =
  List.iter
    (fun sched ->
      let spec = Harness.Run.Spec.with_sched sched spec in
      let seq = fingerprint (Harness.Run.run ~spec ~env ~seed ()) in
      List.iter
        (fun intra ->
          let par = fingerprint (run ~spec ~env ~intra ~seed) in
          check bool_t
            (Printf.sprintf "%s: intra=%d matches sequential (%s)" name intra
               (match sched with `Wheel -> "wheel" | `Heap -> "heap"))
            true (par = seq))
        [ 1; 2; 4 ])
    [ `Wheel; `Heap ]

let test_gossip () = assert_invariant ~name:"gossip" base env

let test_gossip_pin () =
  (* Stronger than self-consistency: the parallel run must reproduce the
     digest pinned by test_fault/test_obs for the sequential engine. *)
  List.iter
    (fun intra ->
      check str_t
        (Printf.sprintf "intra=%d reproduces the plan-free pin" intra)
        "d04e0b6bb1a89956"
        (Obs.Digest.to_hex
           (Option.get (run ~spec:base ~env ~intra ~seed:7L).Harness.Run.digest)))
    [ 2; 4 ]

let test_relay () =
  assert_invariant ~name:"relay"
    Harness.Run.Spec.(base |> with_algo `Relay)
    relay_env

let test_faulted () =
  assert_invariant ~name:"faulted"
    Harness.Run.Spec.(base |> with_plan busy_plan)
    env

let test_crashes () =
  assert_invariant ~name:"crashes"
    Harness.Run.Spec.(base |> with_crashes [ (0, ms 400) ])
    env

let test_routed () =
  assert_invariant ~name:"routed"
    Harness.Run.Spec.(
      base
      |> with_topology Net.Topology.Ring
      |> with_link_channel
           (Net.Topology.Eventually_timely
              { gst = ms 500; bound = Sim.Time.of_sec 2 }))
    env

let test_fair_lossy () =
  (* Complete graph, every edge fair-lossy: the loss coins come from
     per-executor streams, so the sharded run draws exactly the sequential
     run's coins. *)
  assert_invariant ~name:"fair-lossy"
    Harness.Run.Spec.(base |> with_link_channel (Net.Topology.Fair_lossy 0.1))
    env

let test_seed_spread () =
  (* Different seeds must still differ under parallel execution (the
     shards really run the seed, not some collapsed schedule). *)
  let d seed = Option.get (run ~spec:base ~env ~intra:2 ~seed).Harness.Run.digest in
  check int_t "three seeds, three digests" 3
    (List.length (List.sort_uniq Int64.compare [ d 3L; d 7L; d 11L ]))

let test_start_refuses_intra () =
  check bool_t "Run.start refuses intra_domains > 1" true
    (try
       ignore
         (Harness.Run.start
            ~spec:(Harness.Run.Spec.with_intra_domains 2 base)
            ~env ~seed:7L ());
       false
     with Invalid_argument _ -> true);
  check bool_t "with_intra_domains rejects 0" true
    (try
       ignore (Harness.Run.Spec.with_intra_domains 0 base);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------ lookahead safety *)

(* Window certificate: over every regime family and adversarial knob the
   scenarios expose, no oracle delay may undercut [lookahead_us] — a
   cross-shard message sent at s arrives at or after s + λ, hence at or
   after the end of any window that could still be executing s. *)
let lookahead_safety =
  QCheck.Test.make ~count:200 ~name:"oracle delays never undercut lookahead"
    QCheck.(
      quad (int_range 4 9) (int_range 0 3) small_nat (int_range 0 5000))
    (fun (n, t_minus, rn_seed, now_ms) ->
      let n = max 4 n in
      let t = max 1 (min ((n - 1) / 2) (1 + t_minus)) in
      let center = n - 2 in
      let regimes =
        [
          Scenarios.Scenario.Full_timely;
          Scenarios.Scenario.Chaos;
          Scenarios.Scenario.Rotating_star { center };
          Scenarios.Scenario.Intermittent_star { center; d = 4 };
          Scenarios.Scenario.T_source { center };
          Scenarios.Scenario.Moving_source { center };
        ]
      in
      List.for_all
        (fun regime ->
          let params =
            Scenarios.Scenario.default_params ~n ~t ~beta:(ms 10)
          in
          let scenario =
            Scenarios.Scenario.create params regime
              ~seed:(Int64.of_int (rn_seed + 1))
          in
          let lo = Scenarios.Scenario.lookahead_us scenario in
          let now = ms now_ms in
          let ok ~rn ~at ~src ~dst =
            Scenarios.Scenario.oracle_us scenario
              ~round_of:(fun (m : int) -> m)
              ~now ~seq:rn_seed ~at ~src ~dst rn
            >= lo
          in
          lo > 0
          && List.for_all
               (fun rn ->
                 List.for_all
                   (fun src ->
                     List.for_all
                       (fun dst ->
                         ok ~rn ~at:src ~src ~dst
                         && ok ~rn ~at:dst ~src ~dst)
                       [ 0; center; n - 1 ])
                   [ 0; 1; center ])
               [ -1; 1; rn_seed + 1 ])
        regimes)

let () =
  Alcotest.run "intra"
    [
      ( "invariance",
        [
          Alcotest.test_case "gossip" `Quick test_gossip;
          Alcotest.test_case "gossip matches the pin" `Quick test_gossip_pin;
          Alcotest.test_case "relay" `Quick test_relay;
          Alcotest.test_case "faulted plan" `Quick test_faulted;
          Alcotest.test_case "scheduled crashes" `Quick test_crashes;
          Alcotest.test_case "routed topology" `Quick test_routed;
          Alcotest.test_case "fair-lossy channels" `Quick test_fair_lossy;
          Alcotest.test_case "seeds discriminate" `Quick test_seed_spread;
        ] );
      ( "guards",
        [
          Alcotest.test_case "start refuses intra" `Quick
            test_start_refuses_intra;
        ] );
      ( "lookahead",
        [ QCheck_alcotest.to_alcotest lookahead_safety ] );
    ]
