(* Full-stack integration tests: the paper's headline claims as executable
   assertions (reduced-size versions of experiments E1, E2, E3, E6, E7, E8),
   with assumption compliance verified on every trace. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

module Scenario = Scenarios.Scenario

let run ?(n = 8) ?(t = 3) ?(horizon = sec 30) ?(crashes = [ (0, sec 5) ])
    ?(wire_stats = false) ?config_tweak variant regime =
  let config = Omega.Config.default ~n ~t variant in
  let config = match config_tweak with Some f -> f config | None -> config in
  let env = Scenarios.Env.make config regime in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon horizon |> with_crashes crashes
      |> with_wire_stats wire_stats)
  in
  Harness.Run.run ~spec ~env ~seed:7L ()

let stabilized result = result.Harness.Run.stabilized_at <> None

let no_violations result =
  match result.Harness.Run.checker with
  | Some report -> List.length report.Scenarios.Checker.violations = 0
  | None -> true

(* Theorem 1: Figure 1 elects the center under the rotating star, despite a
   crash. *)
let test_fig1_rotating_star () =
  let result = run Omega.Config.Fig1 (Scenario.Rotating_star { center = 6 }) in
  check bool_t "stabilized" true (stabilized result);
  check (Alcotest.option int_t) "elected the center" (Some 6)
    result.Harness.Run.final_leader;
  check bool_t "assumption held" true (no_violations result)

(* Theorem 2 boundary: Figure 1 does NOT stabilize when the star is only
   intermittent... *)
let test_fig1_fails_intermittent () =
  let result =
    run Omega.Config.Fig1 (Scenario.Intermittent_star { center = 6; d = 8 })
  in
  check bool_t "no stable leader" false (stabilized result)

(* ...but Figure 2 does. *)
let test_fig2_intermittent () =
  let result =
    run Omega.Config.Fig2 (Scenario.Intermittent_star { center = 6; d = 8 })
  in
  check bool_t "stabilized" true (stabilized result);
  check (Alcotest.option int_t) "center" (Some 6)
    result.Harness.Run.final_leader;
  check bool_t "assumption held" true (no_violations result)

(* ...and Figure 3 does too, with every variable bounded (Theorem 4 +
   Lemma 8). Smaller D so convergence fits a short horizon. *)
let test_fig3_intermittent_bounded () =
  let result =
    run ~horizon:(sec 60) Omega.Config.Fig3
      (Scenario.Intermittent_star { center = 6; d = 4 })
  in
  check bool_t "stabilized" true (stabilized result);
  check (Alcotest.option int_t) "center" (Some 6)
    result.Harness.Run.final_leader;
  check bool_t "susp levels bounded" true (result.Harness.Run.max_susp_level <= 12);
  check bool_t "timeouts bounded" true
    Sim.Time.(result.Harness.Run.max_timeout <= ms 40);
  check int_t "lattice invariant never violated" 0
    result.Harness.Run.lattice_violations

(* Figure 2 under the same run has unbounded growth (contrast for E3). *)
let test_fig2_unbounded_contrast () =
  let fig2 =
    run ~horizon:(sec 60) Omega.Config.Fig2
      (Scenario.Intermittent_star { center = 6; d = 4 })
  in
  let fig3 =
    run ~horizon:(sec 60) Omega.Config.Fig3
      (Scenario.Intermittent_star { center = 6; d = 4 })
  in
  check bool_t "fig2 levels far exceed fig3's" true
    (fig2.Harness.Run.max_susp_level > 4 * fig3.Harness.Run.max_susp_level)

(* Nothing stabilizes under chaos (with a crash so a frozen leader cannot
   satisfy Omega by accident). *)
let test_chaos_defeats_everything () =
  List.iter
    (fun variant ->
      (* Long horizon: under chaos the leader flap period grows with the
         square root of the round count, so short runs can end inside one
         victim block. *)
      let result = run ~horizon:(sec 60) variant Scenario.Chaos in
      check bool_t
        (Omega.Config.variant_name variant ^ " does not stabilize under chaos")
        false (stabilized result))
    [ Omega.Config.Fig1; Omega.Config.Fig3 ]

(* Prior-work regimes are special cases of A: figures 2-3 stabilize under
   all of them (paper section 3). *)
let test_a_contains_prior_assumptions () =
  List.iter
    (fun regime ->
      let result = run Omega.Config.Fig3 regime in
      check bool_t
        (Scenario.regime_name regime ^ " handled by fig3")
        true (stabilized result);
      check bool_t
        (Scenario.regime_name regime ^ " compliant")
        true (no_violations result))
    [
      Scenario.T_source { center = 6 };
      Scenario.Moving_source { center = 6 };
      Scenario.Message_pattern { center = 6 };
      Scenario.Combined { center = 6 };
    ]

(* Section 7: growing (quadratic) delays defeat plain Figure 3 but not the
   g-aware variant. Parameters as in experiment E7 (see Suite.e7). *)
let test_growing_delays_need_g () =
  let regime = Scenario.Growing_star { center = 3; d = 2; g_step = ms 5 } in
  let tweak c =
    {
      c with
      Omega.Config.initial_timeout = ms 8;
      send_jitter = 0.02;
      timeout_unit = Sim.Time.of_us 50;
    }
  in
  let params = Scenario.default_params ~n:5 ~t:2 ~beta:(ms 10) in
  let scen = Scenario.create params regime ~seed:42L in
  let g = Scenario.g_function scen in
  let plain =
    run ~n:5 ~t:2 ~crashes:[] ~horizon:(sec 90) ~config_tweak:tweak
      Omega.Config.Fig3 regime
  in
  let aware =
    run ~n:5 ~t:2 ~crashes:[] ~horizon:(sec 90) ~config_tweak:tweak
      (Omega.Config.Fig3_fg { f = (fun _ -> 0); g })
      regime
  in
  check bool_t "g-aware elects the center" true
    (stabilized aware && aware.Harness.Run.final_leader = Some 3);
  check bool_t "g-unaware does not elect the center" true
    (not (stabilized plain) || plain.Harness.Run.final_leader <> Some 3)

(* Section 7, f side: growing gaps between good rounds defeat plain
   Figure 3 but not the f-aware variant (E7b). *)
let test_growing_gaps_need_f () =
  let regime = Scenario.Growing_gaps { center = 6; d = 4; f_step = 8 } in
  let params = Scenario.default_params ~n:8 ~t:3 ~beta:(ms 10) in
  let scen = Scenario.create params regime ~seed:42L in
  let f = Scenario.f_function scen in
  let plain = run ~horizon:(sec 45) Omega.Config.Fig3 regime in
  let aware =
    run ~horizon:(sec 45)
      (Omega.Config.Fig3_fg { f; g = (fun _ -> Sim.Time.zero) })
      regime
  in
  check bool_t "f-aware elects the center" true
    (stabilized aware && aware.Harness.Run.final_leader = Some 6);
  check bool_t "f-unaware does not elect the center" true
    (not (stabilized plain) || plain.Harness.Run.final_leader <> Some 6);
  check bool_t "both runs assumption-compliant" true
    (no_violations plain && no_violations aware)

(* Section 1.1: crash of the elected leader, re-election under a failover
   star (E8). *)
let test_reelection_after_leader_crash () =
  (* Crash detection lags by the send/receive round drift: the crashed
     center pre-sent ~1000 rounds of ALIVEs, so give the run room. *)
  let crash_time = sec 10 in
  let result =
    run ~horizon:(sec 75)
      ~crashes:[ (2, crash_time) ]
      Omega.Config.Fig3
      (Scenario.Failover { first = 2; second = 6; switch = 1000 })
  in
  check bool_t "stabilized on the new center" true
    (stabilized result && result.Harness.Run.final_leader = Some 6);
  (match result.Harness.Run.stabilized_at with
  | Some at -> check bool_t "re-elected after the crash" true Sim.Time.(at > crash_time)
  | None -> Alcotest.fail "expected stabilization");
  check bool_t "assumption held across the switch" true (no_violations result)

(* Theorem 5 end-to-end: consensus over the real Figure-3 oracle under an
   intermittent star, leader crash included. *)
let test_consensus_over_real_omega () =
  let n = 8 and t = 3 in
  let engine = Sim.Engine.create ~seed:11L () in
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let params = Scenario.default_params ~n ~t ~beta:(ms 10) in
  let scenario =
    Scenario.create params
      (Scenario.Intermittent_star { center = 6; d = 4 })
      ~seed:42L
  in
  let omega_net =
    Net.Network.of_spec
      Net.Spec.(
        default
        |> with_oracle_us
             (Scenario.oracle_us scenario ~round_of:Scenario.round_rn_of_omega))
      engine ~n
  in
  let omega = Omega.Cluster.create config omega_net in
  let cons_net =
    Net.Network.of_spec
      Net.Spec.(
        default
        |> with_oracle_us (Scenario.oracle_us scenario ~round_of:(fun _ -> -1)))
      engine ~n
  in
  let cons =
    Consensus.Single.create cons_net
      ~oracle:(fun p () -> Omega.Node.leader (Omega.Cluster.node omega p))
      ~retry_every:(ms 50) ~crash_bound:t
  in
  Omega.Cluster.start omega;
  Consensus.Single.start cons;
  for p = 0 to n - 1 do
    Consensus.Single.propose cons p (300 + p)
  done;
  Omega.Cluster.crash_at omega 0 (ms 400);
  ignore
    (Sim.Engine.schedule_at engine (ms 400) (fun () ->
         Net.Network.crash cons_net 0));
  Sim.Engine.run_until engine (sec 30);
  match Consensus.Single.uniform_decision cons with
  | Some v -> check bool_t "validity" true (v >= 300 && v < 300 + n)
  | None -> Alcotest.fail "consensus did not terminate under A + majority"

(* Determinism across the whole stack: identical seeds give identical
   outcomes. *)
let test_full_stack_deterministic () =
  let go () =
    let r = run Omega.Config.Fig3 (Scenario.Rotating_star { center = 6 }) in
    ( r.Harness.Run.final_leader,
      r.Harness.Run.messages_sent,
      r.Harness.Run.stabilized_at,
      r.Harness.Run.max_susp_level )
  in
  check bool_t "bit-identical reruns" true (go () = go ())

(* The harness's own sanity: message accounting is consistent. *)
let test_harness_accounting () =
  let result =
    run ~wire_stats:true Omega.Config.Fig3 (Scenario.Rotating_star { center = 6 })
  in
  check bool_t "delivered <= sent" true
    (result.Harness.Run.messages_delivered <= result.Harness.Run.messages_sent);
  check bool_t "bytes counted" true
    (result.Harness.Run.alive_bytes > 0
    && result.Harness.Run.suspicion_bytes > 0);
  check bool_t "rounds progressed" true (result.Harness.Run.min_sending_round > 500)

let () =
  Alcotest.run "integration"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "T1: fig1 under rotating star" `Slow
            test_fig1_rotating_star;
          Alcotest.test_case "T2 boundary: fig1 fails intermittent" `Slow
            test_fig1_fails_intermittent;
          Alcotest.test_case "T2: fig2 under intermittent star" `Slow
            test_fig2_intermittent;
          Alcotest.test_case "T4+L8: fig3 bounded" `Slow
            test_fig3_intermittent_bounded;
          Alcotest.test_case "T4 contrast: fig2 unbounded" `Slow
            test_fig2_unbounded_contrast;
          Alcotest.test_case "chaos defeats all" `Slow
            test_chaos_defeats_everything;
          Alcotest.test_case "S3: A contains prior assumptions" `Slow
            test_a_contains_prior_assumptions;
          Alcotest.test_case "S7: growing delays need g" `Slow
            test_growing_delays_need_g;
          Alcotest.test_case "S7: growing gaps need f" `Slow
            test_growing_gaps_need_f;
          Alcotest.test_case "S1.1: re-election after crash" `Slow
            test_reelection_after_leader_crash;
          Alcotest.test_case "T5: consensus over real omega" `Slow
            test_consensus_over_real_omega;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "determinism" `Slow test_full_stack_deterministic;
          Alcotest.test_case "accounting" `Slow test_harness_accounting;
        ] );
    ]
