(* Cross-stack property tests: eventual leadership over randomly drawn
   A-compliant schedules, assumption-compliance of every such run, arrival
   bound monotonicity, and total-order broadcast under random workloads. *)

let ms = Sim.Time.of_ms
let sec = Sim.Time.of_sec

module Scenario = Scenarios.Scenario

let qtest = QCheck_alcotest.to_alcotest

(* Eventual leadership: for any seed and gap bound D, Figure 2 elects the
   center of a randomly drawn intermittent rotating star, and the checker
   confirms the assumption held. *)
let prop_eventual_leadership =
  QCheck.Test.make ~name:"fig2 elects the center of any intermittent star"
    ~count:6
    QCheck.(pair (int_range 1 6) (int_range 1 1000))
    (fun (d, seed) ->
      let n = 8 and t = 3 in
      let config = Omega.Config.default ~n ~t Omega.Config.Fig2 in
      let env =
        Scenarios.Env.make
          ~scenario_seed:(Int64.of_int seed)
          config
          (Scenario.Intermittent_star { center = 6; d })
      in
      let result =
        Harness.Run.run
          ~spec:
            Harness.Run.Spec.(
              default |> with_horizon (sec 25)
              |> with_crashes [ (0, sec 4) ])
          ~env
          ~seed:(Int64.of_int (seed * 31))
          ()
      in
      let ok_leader =
        result.Harness.Run.stabilized_at <> None
        && result.Harness.Run.final_leader = Some 6
      in
      let ok_checker =
        match result.Harness.Run.checker with
        | Some report -> report.Scenarios.Checker.violations = []
        | None -> false
      in
      ok_leader && ok_checker)

(* Figure 3's lattice invariant across random full-stack runs (Lemma 8 at
   system scale, complementing the message-soup unit property). *)
let prop_lattice_full_stack =
  QCheck.Test.make ~name:"fig3 lattice invariant on random full runs" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let n = 6 and t = 2 in
      let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
      let env =
        Scenarios.Env.make
          ~scenario_seed:(Int64.of_int seed)
          config
          (Scenario.Rotating_star { center = 4 })
      in
      let result =
        Harness.Run.run
          ~spec:
            Harness.Run.Spec.(
              default |> with_horizon (sec 12)
              |> with_crashes [ (0, sec 3) ])
          ~env
          ~seed:(Int64.of_int (seed * 17))
          ()
      in
      result.Harness.Run.lattice_violations = 0)

(* The arrival bound used to pick the checker horizon must be monotone in
   the round number for every regime (the binary search relies on it). *)
let prop_arrival_bound_monotone =
  QCheck.Test.make ~name:"arrival bound monotone in rn" ~count:50
    QCheck.(pair (int_range 0 8) (int_range 1 2000))
    (fun (which, rn) ->
      let n = 8 and t = 3 in
      let regime =
        match which with
        | 0 -> Scenario.Full_timely
        | 1 -> Scenario.T_source { center = 6 }
        | 2 -> Scenario.Moving_source { center = 6 }
        | 3 -> Scenario.Message_pattern { center = 6 }
        | 4 -> Scenario.Combined { center = 6 }
        | 5 -> Scenario.Rotating_star { center = 6 }
        | 6 -> Scenario.Intermittent_star { center = 6; d = 5 }
        | 7 -> Scenario.Growing_star { center = 6; d = 5; g_step = ms 2 }
        | _ -> Scenario.Chaos
      in
      let s =
        Scenario.create (Scenario.default_params ~n ~t ~beta:(ms 10)) regime
          ~seed:3L
      in
      Sim.Time.(Scenario.arrival_bound s rn <= Scenario.arrival_bound s (rn + 1)))

(* ... and monotone in the hop count: a routed topology stretches the
   bound by its diameter (DESIGN.md §17), never shrinks it. *)
let prop_arrival_bound_monotone_hops =
  QCheck.Test.make ~name:"arrival bound monotone in hops" ~count:50
    QCheck.(triple (int_range 0 8) (int_range 1 2000) (int_range 1 8))
    (fun (which, rn, hops) ->
      let n = 8 and t = 3 in
      let regime =
        match which with
        | 0 -> Scenario.Full_timely
        | 1 -> Scenario.T_source { center = 6 }
        | 2 -> Scenario.Moving_source { center = 6 }
        | 3 -> Scenario.Message_pattern { center = 6 }
        | 4 -> Scenario.Combined { center = 6 }
        | 5 -> Scenario.Rotating_star { center = 6 }
        | 6 -> Scenario.Intermittent_star { center = 6; d = 5 }
        | 7 -> Scenario.Growing_star { center = 6; d = 5; g_step = ms 2 }
        | _ -> Scenario.Chaos
      in
      let s =
        Scenario.create (Scenario.default_params ~n ~t ~beta:(ms 10)) regime
          ~seed:3L
      in
      Sim.Time.(
        Scenario.arrival_bound ~hops s rn
        <= Scenario.arrival_bound ~hops:(hops + 1) s rn)
      && Scenario.arrival_bound ~hops:1 s rn = Scenario.arrival_bound s rn)

(* Atomic broadcast delivers identical sequences under random workloads
   (random submitters, random submission times), with a mid-run crash. *)
let prop_broadcast_total_order =
  QCheck.Test.make ~name:"broadcast total order under random workloads"
    ~count:8
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(1 -- 12) (int_bound 4)))
    (fun (seed, submitters) ->
      let n = 5 and t = 2 in
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
      let oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 500 in
      let net =
        Net.Network.of_spec
          Net.Spec.(default |> with_oracle_us oracle)
          engine ~n
      in
      let current = ref 1 in
      let nodes =
        Array.init n (fun me ->
            Consensus.Broadcast.create net ~me
              ~oracle:(fun () -> !current)
              ~retry_every:(ms 25) ~crash_bound:t ~equal:Int.equal)
      in
      Array.iter Consensus.Broadcast.start nodes;
      List.iteri
        (fun i submitter ->
          (* Submitters are correct processes only: a command submitted at a
             process that crashes before forwarding it may rightly be lost
             (uniform validity covers correct submitters). *)
          let submitter = 1 + (submitter mod 4) in
          ignore
            (Sim.Engine.schedule_at engine
               (ms (37 * i))
               (fun () ->
                 Consensus.Broadcast.submit nodes.(submitter) (500 + i))))
        submitters;
      ignore
        (Sim.Engine.schedule_at engine (ms 150) (fun () ->
             Net.Network.crash net 0;
             current := 2));
      Sim.Engine.run_until engine (sec 8);
      let sequences =
        List.map
          (fun p -> Consensus.Broadcast.delivered nodes.(p))
          (Net.Network.correct net)
      in
      match sequences with
      | [] -> false
      | first :: rest ->
          List.for_all (( = ) first) rest
          && List.length first = List.length submitters
          && List.sort_uniq compare first = List.sort compare first)

(* Retransmission layer: exactly-once delivery for any loss rate and any
   payload count. *)
let prop_retransmit_exactly_once =
  QCheck.Test.make ~name:"retransmit delivers exactly once for any loss"
    ~count:25
    QCheck.(triple (int_range 1 1000) (int_range 0 8) (int_range 1 60))
    (fun (seed, loss_tenths, count) ->
      let loss = float_of_int loss_tenths /. 10. in
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
      let oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 300 in
      let layer =
        Net.Retransmit.create
          ~channels:(fun ~src:_ ~dst:_ -> Net.Topology.Fair_lossy loss)
          engine ~n:2 ~oracle ~resend_every:(ms 4)
      in
      Net.Retransmit.start layer;
      let received = ref [] in
      Net.Retransmit.set_handler layer 1 (fun ~src:_ m ->
          received := m :: !received);
      for i = 1 to count do
        Net.Retransmit.send layer ~src:0 ~dst:1 i
      done;
      Sim.Engine.run_until engine (sec 20);
      List.rev !received = List.init count (fun i -> i + 1))

let () =
  Alcotest.run "properties"
    [
      ( "system",
        [
          qtest prop_eventual_leadership;
          qtest prop_lattice_full_stack;
          qtest prop_arrival_bound_monotone;
          qtest prop_arrival_bound_monotone_hops;
          qtest prop_broadcast_total_order;
          qtest prop_retransmit_exactly_once;
        ] );
    ]
