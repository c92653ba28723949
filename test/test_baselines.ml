(* Tests for the baseline detectors of experiment E4: the classic heartbeat
   algorithm on its own, and every E4 column — the paper's three figures,
   the timer-only and count-only detectors, and the heartbeat — driven
   through Run.run like the experiment drives them. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

module Scenario = Scenarios.Scenario
module Run = Harness.Run
module HB = Omega.Heartbeat

let instant ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 1

let heartbeat_cluster ?(n = 4) ?(oracle = instant) () =
  let engine = Sim.Engine.create ~seed:4L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us oracle)
      engine ~n
  in
  let config =
    {
      (Omega.Config.default ~n ~t:1 Omega.Config.Fig1) with
      Omega.Config.initial_timeout = Sim.Time.of_ms 25;
    }
  in
  let cluster = HB.create config net in
  let iface = HB.iface cluster in
  Omega.Iface.start iface;
  (engine, net, cluster, iface)

let test_heartbeat_elects_min_id () =
  let engine, net, _, iface = heartbeat_cluster () in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check (Alcotest.option int_t) "min id" (Some 0)
    (Omega.Iface.agreed_leader iface);
  check bool_t "epochs advance" true
    (List.for_all
       (fun p -> Omega.Iface.receiving_round iface p > 100)
       (Net.Network.correct net))

let test_heartbeat_suspects_crashed () =
  let engine, _, cluster, iface = heartbeat_cluster () in
  Omega.Iface.crash_at iface 0 (Sim.Time.of_ms 500);
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check bool_t "everyone suspects 0" true
    (List.for_all (fun p -> List.mem 0 (HB.suspected cluster p)) [ 1; 2; 3 ]);
  check (Alcotest.option int_t) "fails over to 1" (Some 1)
    (Omega.Iface.agreed_leader iface)

let test_heartbeat_unsuspects_and_adapts () =
  (* A sender that is slow once gets suspected, then unsuspected when its
     heartbeat arrives; its timeout grows so the same delay no longer
     triggers a suspicion. *)
  let burst = ref true in
  let oracle ~now:_ ~seq:_ ~at:_ ~src ~dst:_ _ =
    if src = 2 && !burst then 60_000 else 100
  in
  let engine, _, cluster, iface = heartbeat_cluster ~oracle () in
  Sim.Engine.run_until engine (Sim.Time.of_ms 40);
  check bool_t "slow sender suspected" true
    (List.mem 2 (HB.suspected cluster 0));
  burst := false;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1);
  check bool_t "unsuspected after delivery" false
    (List.mem 2 (HB.suspected cluster 0));
  check bool_t "timeout lengthened" true
    Sim.Time.(Omega.Iface.max_timeout_armed iface 0 > Sim.Time.of_ms 25)

(* ------------------------------------------------------------ registry *)

(* E4's columns: (name, variant, closure rule, algorithm). *)
let algos =
  Omega.Config.
    [
      ("fig1", Fig1, Conjunction, `Gossip);
      ("fig2", Fig2, Conjunction, `Gossip);
      ("fig3", Fig3, Conjunction, `Gossip);
      ("timer-only", Fig1, Timer_only, `Gossip);
      ("count-only", Fig1, Count_only, `Gossip);
      ("heartbeat", Fig1, Conjunction, `Heartbeat);
    ]

let column name = List.find (fun (n, _, _, _) -> n = name) algos

let drive (_, variant, closure, algo) regime ~seconds =
  Run.run
    ~spec:
      Run.Spec.(
        default
        |> with_horizon (Sim.Time.of_sec seconds)
        |> with_check false |> with_algo algo)
    ~env:
      (Scenarios.Env.make
         {
           (Omega.Config.default ~n:8 ~t:3 variant) with
           Omega.Config.closure;
         }
         regime)
    ~seed:7L ()

(* Agreed leader / slowest round at the horizon: the last sample. *)
let last result = List.nth result.Run.samples (List.length result.Run.samples - 1)

let test_all_stabilize_under_full_timely () =
  List.iter
    (fun ((name, _, _, _) as algo) ->
      let result = drive algo Scenario.Full_timely ~seconds:5 in
      check bool_t
        (name ^ " agrees under full timeliness")
        true
        ((last result).Run.agreed <> None))
    algos

let test_heartbeat_flaps_under_chaos () =
  (* Under rotating victims the suspected sets churn; there is no guarantee
     of a common leader. It must disagree at least sometimes. *)
  let result = drive (column "heartbeat") Scenario.Chaos ~seconds:10 in
  let anarchy =
    List.length
      (List.filter (fun s -> s.Run.agreed = None) result.Run.samples)
  in
  check bool_t "anarchy periods exist under chaos" true (anarchy > 0)

let test_count_only_ignores_time () =
  (* The order-based detector stabilizes under the message-pattern regime
     even though delays grow without bound. *)
  let result =
    drive (column "count-only") (Scenario.Message_pattern { center = 6 })
      ~seconds:15
  in
  check (Alcotest.option int_t) "count-only elects the winning center"
    (Some 6) (last result).Run.agreed

let test_timer_only_fails_under_message_pattern () =
  (* The timeout-based detector cannot exploit winning order: the center's
     ever-growing delays keep it suspected, so the center is not elected. *)
  let result =
    drive (column "timer-only") (Scenario.Message_pattern { center = 6 })
      ~seconds:15
  in
  check bool_t "timer-only does not settle on the center" true
    ((last result).Run.agreed <> Some 6)

let test_min_round_advances () =
  List.iter
    (fun ((name, _, _, _) as algo) ->
      let result = drive algo Scenario.Full_timely ~seconds:2 in
      check bool_t (name ^ " rounds advance") true ((last result).Run.round > 10))
    algos

let () =
  Alcotest.run "baselines"
    [
      ( "heartbeat",
        [
          Alcotest.test_case "elects min id" `Quick test_heartbeat_elects_min_id;
          Alcotest.test_case "suspects crashed" `Quick
            test_heartbeat_suspects_crashed;
          Alcotest.test_case "unsuspects and adapts" `Quick
            test_heartbeat_unsuspects_and_adapts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "full timely: all stabilize" `Slow
            test_all_stabilize_under_full_timely;
          Alcotest.test_case "chaos: heartbeat flaps" `Quick
            test_heartbeat_flaps_under_chaos;
          Alcotest.test_case "count-only is time-free" `Slow
            test_count_only_ignores_time;
          Alcotest.test_case "timer-only needs time" `Slow
            test_timer_only_fails_under_message_pattern;
          Alcotest.test_case "rounds advance" `Quick test_min_round_advances;
        ] );
    ]
