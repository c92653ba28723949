(* Tests for the baseline detectors: the classic heartbeat algorithm and the
   registry's uniform driver interface. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

module Scenario = Scenarios.Scenario
module HB = Baselines.Heartbeat
module Registry = Baselines.Registry

let instant ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 1

let heartbeat_cluster ?(n = 4) ?(oracle = instant) () =
  let engine = Sim.Engine.create ~seed:4L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us oracle)
      engine ~n
  in
  let cluster =
    HB.create_cluster net ~beta:(Sim.Time.of_ms 10)
      ~initial_timeout:(Sim.Time.of_ms 25)
  in
  HB.start cluster;
  (engine, net, cluster)

let test_heartbeat_elects_min_id () =
  let engine, _, cluster = heartbeat_cluster () in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check (Alcotest.option int_t) "min id" (Some 0) (HB.agreed_leader cluster);
  check bool_t "epochs advance" true (HB.min_epoch cluster > 100)

let test_heartbeat_suspects_crashed () =
  let engine, net, cluster = heartbeat_cluster () in
  ignore
    (Sim.Engine.schedule_at engine (Sim.Time.of_ms 500) (fun () ->
         Net.Network.crash net 0));
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check bool_t "everyone suspects 0" true
    (List.for_all (fun p -> List.mem 0 (HB.suspected cluster p)) [ 1; 2; 3 ]);
  check (Alcotest.option int_t) "fails over to 1" (Some 1)
    (HB.agreed_leader cluster)

let test_heartbeat_unsuspects_and_adapts () =
  (* A sender that is slow once gets suspected, then unsuspected when its
     heartbeat arrives; the timeout doubles so the same delay no longer
     triggers a suspicion. *)
  let burst = ref true in
  let oracle ~now:_ ~seq:_ ~at:_ ~src ~dst:_ _ =
    if src = 2 && !burst then 60_000 else 100
  in
  let engine, _, cluster = heartbeat_cluster ~oracle () in
  Sim.Engine.run_until engine (Sim.Time.of_ms 40);
  check bool_t "slow sender suspected" true
    (List.mem 2 (HB.suspected cluster 0));
  burst := false;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1);
  check bool_t "unsuspected after delivery" false
    (List.mem 2 (HB.suspected cluster 0))

let test_heartbeat_round_of () =
  check int_t "epoch tag" 5
    (HB.round_of (HB.Heartbeat { epoch = 5 }))

(* ------------------------------------------------------------ registry *)

let test_registry_names_unique () =
  let names = List.map (fun a -> a.Registry.name) Registry.all in
  check int_t "six algorithms" 6 (List.length names);
  check int_t "unique names" 6 (List.length (List.sort_uniq compare names));
  check bool_t "lookup hit" true (Registry.by_name "fig3" <> None);
  check bool_t "lookup miss" true (Registry.by_name "nope" = None)

let drive algo regime ~seconds =
  let scenario =
    Scenario.create
      (Scenario.default_params ~n:8 ~t:3 ~beta:(Sim.Time.of_ms 10))
      regime ~seed:42L
  in
  let engine = Sim.Engine.create ~seed:7L () in
  let instance = algo.Registry.make engine scenario in
  instance.Registry.start ();
  Sim.Engine.run_until engine (Sim.Time.of_sec seconds);
  instance

let test_all_stabilize_under_full_timely () =
  List.iter
    (fun algo ->
      let instance = drive algo Scenario.Full_timely ~seconds:5 in
      check bool_t
        (algo.Registry.name ^ " agrees under full timeliness")
        true
        (instance.Registry.agreed_leader () <> None))
    Registry.all

let test_heartbeat_flaps_under_chaos () =
  let instance = drive Registry.heartbeat Scenario.Chaos ~seconds:5 in
  (* Under rotating victims the suspected sets churn; there is no guarantee
     of a common leader. We sample: it must disagree at least sometimes.
     (Run a fresh instance and sample over time.) *)
  let scenario =
    Scenario.create
      (Scenario.default_params ~n:8 ~t:3 ~beta:(Sim.Time.of_ms 10))
      Scenario.Chaos ~seed:42L
  in
  let engine = Sim.Engine.create ~seed:7L () in
  let fresh = Registry.heartbeat.Registry.make engine scenario in
  fresh.Registry.start ();
  let anarchy = ref 0 in
  for _ = 1 to 50 do
    Sim.Engine.run_until engine
      (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_ms 200));
    if fresh.Registry.agreed_leader () = None then incr anarchy
  done;
  ignore instance;
  check bool_t "anarchy periods exist under chaos" true (!anarchy > 0)

let test_count_only_ignores_time () =
  (* The order-based detector stabilizes under the message-pattern regime
     even though delays grow without bound. *)
  let instance =
    drive Registry.count_only (Scenario.Message_pattern { center = 6 })
      ~seconds:15
  in
  check (Alcotest.option int_t) "count-only elects the winning center"
    (Some 6)
    (instance.Registry.agreed_leader ())

let test_timer_only_fails_under_message_pattern () =
  (* The timeout-based detector cannot exploit winning order: the center's
     ever-growing delays keep it suspected, so the center is not elected. *)
  let instance =
    drive Registry.timer_only (Scenario.Message_pattern { center = 6 })
      ~seconds:15
  in
  check bool_t "timer-only does not settle on the center" true
    (instance.Registry.agreed_leader () <> Some 6)

let test_min_round_advances () =
  List.iter
    (fun algo ->
      let instance = drive algo Scenario.Full_timely ~seconds:2 in
      check bool_t (algo.Registry.name ^ " rounds advance") true
        (instance.Registry.min_round () > 10))
    Registry.all

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
          Alcotest.test_case "round_of" `Quick test_heartbeat_round_of;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names_unique;
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
