(* Tests for topologies and per-edge channel classes (DESIGN.md §17):
   deterministic routing tables, channel-class semantics (fair-lossy coin,
   eventually-timely clamp), topology-aware faults, and the digest
   contracts of the routed path — the legacy pin through the Spec builder,
   wheel-vs-heap equality on a routed run, and snapshot/restore on a
   routed run. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let str_t = Alcotest.string
let us = Sim.Time.of_us
let ms = Sim.Time.of_ms
let sec = Sim.Time.of_sec

type msg = Ping of int

let constant_delay d ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = d

(* ---------------------------------------------------------- routing *)

let kinds ~n =
  [
    Net.Topology.Complete;
    Net.Topology.Ring;
    Net.Topology.Grid;
    Net.Topology.Random_geometric { radius = 0.35 };
    Net.Topology.Fat_tree { rack = 4 };
    Net.Topology.Wan_of_lans { lan = 4 };
  ]
  |> List.map (fun k -> (Net.Topology.kind_to_string k, k, n))

let test_build_deterministic () =
  (* Same kind, same RNG seed: identical next-hop tables. Only the random
     geometric graph draws from the stream at all. *)
  List.iter
    (fun (name, kind, n) ->
      let build seed =
        Net.Topology.build kind ~n ~rng:(Dstruct.Rng.create seed)
      in
      let a = build 42L and b = build 42L in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            check int_t
              (Printf.sprintf "%s next_hop %d->%d" name src dst)
              (Net.Topology.next_hop a ~src ~dst)
              (Net.Topology.next_hop b ~src ~dst)
        done
      done)
    (kinds ~n:16)

let test_routes_reach () =
  (* Following next_hop from any src reaches dst in exactly [dist] steps,
     and no pair exceeds the diameter. *)
  List.iter
    (fun (name, kind, n) ->
      let t = Net.Topology.build kind ~n ~rng:(Dstruct.Rng.create 9L) in
      check bool_t (name ^ " connected") true (Net.Topology.connected t);
      let max_dist = ref 0 in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let d = Net.Topology.dist t ~src ~dst in
            if d > !max_dist then max_dist := d;
            let steps = ref 0 and at = ref src in
            while !at <> dst && !steps <= n do
              at := Net.Topology.next_hop t ~src:!at ~dst;
              incr steps
            done;
            check int_t
              (Printf.sprintf "%s walk %d->%d" name src dst)
              d !steps
          end
        done
      done;
      check int_t (name ^ " diameter = max dist") !max_dist
        (Net.Topology.diameter t))
    (kinds ~n:16)

let test_groups () =
  let t =
    Net.Topology.build
      (Net.Topology.Fat_tree { rack = 4 })
      ~n:10
      ~rng:(Dstruct.Rng.create 0L)
  in
  check int_t "10 pids in racks of 4: 3 racks" 3 (Net.Topology.group_count t);
  check int_t "pid 5 in rack 1" 1 (Net.Topology.group_of t 5);
  let ring = Net.Topology.build Net.Topology.Ring ~n:6 ~rng:(Dstruct.Rng.create 0L) in
  check int_t "ring has no racks" 0 (Net.Topology.group_count ring);
  check int_t "no group id" (-1) (Net.Topology.group_of ring 3)

(* ------------------------------------------------------ channel classes *)

let routed_net ?(n = 2) ?(seed = 5L) ~channels ~oracle () =
  let engine = Sim.Engine.create ~seed () in
  let net =
    Net.Spec.default
    |> Net.Spec.with_oracle_us oracle
    |> Net.Spec.with_channels channels
    |> fun spec -> Net.Network.of_spec spec engine ~n
  in
  (engine, net)

let test_fair_lossy_rate () =
  (* A complete graph whose only edge is Fair_lossy 0.25: over many sends
     the delivered fraction converges on 0.75. The coin comes from the
     network's own stream, so the exact count is seed-deterministic. *)
  let engine, net =
    routed_net
      ~channels:(fun ~src:_ ~dst:_ -> Net.Topology.Fair_lossy 0.25)
      ~oracle:(constant_delay 10) ()
  in
  Net.Network.set_handler net 1 (fun ~src:_ _ -> ());
  let sends = 4000 in
  for i = 1 to sends do
    Net.Network.send net ~src:0 ~dst:1 (Ping i)
  done;
  Sim.Engine.run_until engine (ms 1);
  let delivered = Net.Network.delivered_count net in
  check int_t "sent counter" sends (Net.Network.sent_count net);
  check int_t "dropped + delivered = sent" sends
    (delivered + Net.Network.dropped_count net);
  let rate = float_of_int delivered /. float_of_int sends in
  check bool_t
    (Printf.sprintf "survival rate %.3f within 0.75 +/- 0.03" rate)
    true
    (rate > 0.72 && rate < 0.78)

let test_eventually_timely_clamp () =
  (* The oracle says 200us on every hop; the channel promises 50us after
     gst = 1ms. Before gst the promise is inert; after it the delay is
     clamped to the bound. *)
  let gst = ms 1 and bound = us 50 in
  let engine, net =
    routed_net
      ~channels:(fun ~src:_ ~dst:_ ->
        Net.Topology.Eventually_timely { gst; bound })
      ~oracle:(constant_delay 200) ()
  in
  let arrivals = ref [] in
  Net.Network.set_handler net 1 (fun ~src:_ (Ping i) ->
      arrivals := (i, Sim.Time.to_us (Sim.Engine.now engine)) :: !arrivals);
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  ignore
    (Sim.Engine.schedule_at engine gst (fun () ->
         Net.Network.send net ~src:0 ~dst:1 (Ping 2)));
  Sim.Engine.run_until engine (ms 2);
  let arrival i = List.assoc i !arrivals in
  check int_t "before gst: the oracle's full 200us" 200 (arrival 1);
  check int_t "after gst: clamped to the 50us bound"
    (Sim.Time.to_us gst + 50)
    (arrival 2)

(* ----------------------------------------------------- topology faults *)

let ring_net ~n =
  let engine = Sim.Engine.create ~seed:3L () in
  let net =
    Net.Spec.default
    |> Net.Spec.with_oracle_us (constant_delay 10)
    |> Net.Spec.with_topology Net.Topology.Ring
    |> fun spec -> Net.Network.of_spec spec engine ~n
  in
  (engine, net)

let test_edge_cut_and_heal () =
  let engine, net = ring_net ~n:4 in
  let box = ref 0 in
  Net.Network.set_handler net 1 (fun ~src:_ _ -> incr box);
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Engine.run_until engine (us 100);
  check int_t "edge up: delivered" 1 !box;
  Net.Network.set_edge_cut net ~a:0 ~b:1 true;
  Net.Network.send net ~src:0 ~dst:1 (Ping 2);
  Sim.Engine.run_until engine (us 200);
  check int_t "edge cut: dropped" 1 !box;
  check int_t "drop counted" 1 (Net.Network.dropped_count net);
  Net.Network.set_edge_cut net ~a:0 ~b:1 false;
  Net.Network.send net ~src:0 ~dst:1 (Ping 3);
  Sim.Engine.run_until engine (us 300);
  check int_t "healed: delivered again" 2 !box

let test_edge_degrade () =
  let engine, net = ring_net ~n:4 in
  let arrivals = ref [] in
  Net.Network.set_handler net 1 (fun ~src:_ (Ping i) ->
      arrivals := (i, Sim.Time.to_us (Sim.Engine.now engine)) :: !arrivals);
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Engine.run_until engine (us 50);
  Net.Network.set_edge_degrade net ~a:0 ~b:1 ~extra_us:500;
  ignore
    (Sim.Engine.schedule_at engine (us 100) (fun () ->
         Net.Network.send net ~src:0 ~dst:1 (Ping 2)));
  Sim.Engine.run_until engine (ms 1);
  check int_t "clean hop: 10us" 10 (List.assoc 1 !arrivals);
  check int_t "degraded hop: 10us + 500us extra" 610 (List.assoc 2 !arrivals)

let test_rack_cut () =
  let engine = Sim.Engine.create ~seed:3L () in
  let net =
    Net.Spec.default
    |> Net.Spec.with_oracle_us (constant_delay 10)
    |> Net.Spec.with_topology (Net.Topology.Fat_tree { rack = 4 })
    |> fun spec -> Net.Network.of_spec spec engine ~n:8
  in
  let hits = Array.make 8 0 in
  for p = 0 to 7 do
    Net.Network.set_handler net p (fun ~src:_ _ -> hits.(p) <- hits.(p) + 1)
  done;
  Net.Network.set_rack_cut net ~rack:0 true;
  Net.Network.send net ~src:0 ~dst:4 (Ping 1);
  (* cross-rack: cut *)
  Net.Network.send net ~src:4 ~dst:5 (Ping 2);
  (* inside the other rack: unaffected *)
  Net.Network.send net ~src:1 ~dst:2 (Ping 3);
  (* inside the cut rack: unaffected *)
  Sim.Engine.run_until engine (us 200);
  check int_t "cross-rack dropped" 0 hits.(4);
  check int_t "intra-rack (other) delivered" 1 hits.(5);
  check int_t "intra-rack (isolated) delivered" 1 hits.(2);
  Net.Network.set_rack_cut net ~rack:0 false;
  Net.Network.send net ~src:0 ~dst:4 (Ping 4);
  Sim.Engine.run_until engine (us 400);
  check int_t "healed rack reachable" 1 hits.(4);
  let _, ring = ring_net ~n:4 in
  check bool_t "rackless topology refuses" true
    (match Net.Network.set_rack_cut ring ~rack:0 true with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------ digests *)

let fixture_env () =
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })

let digest_hex result =
  Obs.Digest.to_hex (Option.get result.Harness.Run.digest)

let test_spec_path_keeps_pin () =
  (* The digest fixture from test_obs, with the topology and channel set
     explicitly through the Spec builder: the complete reliable default
     must take the legacy direct-dispatch path bit for bit. *)
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 2) |> with_digest true
      |> with_topology Net.Topology.Complete
      |> with_link_channel Net.Topology.Reliable)
  in
  let result = Harness.Run.run ~spec ~env:(fixture_env ()) ~seed:7L () in
  check str_t "explicit Complete/Reliable keeps the pin" "d04e0b6bb1a89956"
    (digest_hex result)

let test_spec_path_keeps_faulted_pin () =
  (* test_fault's busy-plan pin, through the explicit Spec path. *)
  let busy_plan =
    Fault.Plan.(
      empty
      |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
      |> crash 0 ~at:(ms 600)
      |> recover 0 ~at:(ms 1200)
      |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 2) |> with_digest true
      |> with_plan busy_plan
      |> with_topology Net.Topology.Complete
      |> with_link_channel Net.Topology.Reliable)
  in
  let result = Harness.Run.run ~spec ~env:(fixture_env ()) ~seed:7L () in
  check str_t "faulted pin through the Spec path" "6974643acde923c2"
    (digest_hex result)

let test_spec_path_keeps_relay_pin () =
  (* test_omega_lean's pin, through the explicit Spec path (hop_slack is
     zero on the complete graph, so the relay stream is untouched). *)
  let config =
    {
      (Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3) with
      Omega.Config.initial_timeout = ms 10;
    }
  in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_algo `Relay
      |> with_horizon (sec 2) |> with_digest true
      |> with_topology Net.Topology.Complete
      |> with_link_channel Net.Topology.Reliable)
  in
  let result = Harness.Run.run ~spec ~env ~seed:7L () in
  check str_t "relay pin through the Spec path" "dc1babe982945dd5"
    (digest_hex result)

let ring_env () =
  let config = Omega.Config.default ~n:6 ~t:2 Omega.Config.Fig3 in
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 4 })

let ring_spec sched =
  Harness.Run.Spec.(
    default |> with_horizon (sec 1) |> with_digest true |> with_check false
    |> with_topology Net.Topology.Ring |> with_sched sched)

let test_routed_wheel_heap_agree () =
  let wheel = Harness.Run.run ~spec:(ring_spec `Wheel) ~env:(ring_env ()) ~seed:7L () in
  let heap = Harness.Run.run ~spec:(ring_spec `Heap) ~env:(ring_env ()) ~seed:7L () in
  check str_t "routed run: wheel and heap streams agree" (digest_hex wheel)
    (digest_hex heap);
  check str_t "routed ring digest pinned" "18c64c0ae9271f56" (digest_hex wheel)

let test_routed_deterministic () =
  let once () =
    digest_hex (Harness.Run.run ~spec:(ring_spec `Wheel) ~env:(ring_env ()) ~seed:11L ())
  in
  check str_t "routed run: same seed, same digest" (once ()) (once ())

let test_routed_snapshot_restore () =
  (* Snapshot mid-run on a routed topology (pending multi-hop flights in
     the pool), restore, continue: same digest as the straight run. *)
  let straight =
    Harness.Run.run ~spec:(ring_spec `Wheel) ~env:(ring_env ()) ~seed:7L ()
  in
  let live = Harness.Run.start ~spec:(ring_spec `Wheel) ~env:(ring_env ()) ~seed:7L () in
  Harness.Run.advance live ~until:(ms 400);
  let restored = Harness.Run.restore (Harness.Run.snapshot live) in
  check str_t "routed snapshot -> restore -> continue"
    (digest_hex straight)
    (digest_hex (Harness.Run.finish restored))

let test_edge_fault_plan () =
  (* A topology-aware fault plan is deterministic and observable: cutting
     a ring edge for part of the run shifts the digest, identically on
     every execution. *)
  let plan =
    Fault.Plan.(empty |> cut_edge ~a:4 ~b:5 ~at:(ms 200) ~heal_at:(ms 600) ())
  in
  let spec plan =
    match plan with
    | None -> ring_spec `Wheel
    | Some p -> Harness.Run.Spec.(ring_spec `Wheel |> with_plan p)
  in
  let run p = digest_hex (Harness.Run.run ~spec:(spec p) ~env:(ring_env ()) ~seed:7L ()) in
  check str_t "faulted routed run deterministic" (run (Some plan))
    (run (Some plan));
  check bool_t "edge cut perturbs the stream" false
    (String.equal (run (Some plan)) (run None))

(* [Run.start] attaches the fault injector before any event runs, so a
   plan the topology cannot honour must fail there. *)
let rejected ~topology plan =
  let spec =
    Harness.Run.Spec.(ring_spec `Wheel |> with_topology topology |> with_plan plan)
  in
  match Harness.Run.start ~spec ~env:(ring_env ()) ~seed:7L () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_plan_rejects_non_edge () =
  (* On the 6-ring, 0 and 3 are three hops apart: a cut between them
     would silently cut nothing. *)
  check bool_t "cut_edge between non-adjacent nodes" true
    (rejected ~topology:Net.Topology.Ring
       Fault.Plan.(empty |> cut_edge ~a:0 ~b:3 ~at:(ms 200) ()));
  check bool_t "degrade_edge between non-adjacent nodes" true
    (rejected ~topology:Net.Topology.Ring
       Fault.Plan.(
         empty
         |> degrade_edge ~a:1 ~b:4 ~extra:(ms 1) ~at:(ms 200) ~until:(ms 400)));
  check bool_t "adjacent ring nodes accepted" false
    (rejected ~topology:Net.Topology.Ring
       Fault.Plan.(empty |> cut_edge ~a:5 ~b:0 ~at:(ms 200) ()))

let test_plan_rejects_missing_rack () =
  (* A 6-node fat-tree with racks of 3 has racks 0 and 1 only. *)
  let fat = Net.Topology.Fat_tree { rack = 3 } in
  check bool_t "rack past group_count" true
    (rejected ~topology:fat Fault.Plan.(empty |> cut_rack 2 ~at:(ms 200) ()));
  check bool_t "rackless topology" true
    (rejected ~topology:Net.Topology.Ring
       Fault.Plan.(empty |> cut_rack 0 ~at:(ms 200) ()));
  check bool_t "existing rack accepted" false
    (rejected ~topology:fat Fault.Plan.(empty |> cut_rack 1 ~at:(ms 200) ()))

let () =
  Alcotest.run "topology"
    [
      ( "routing",
        [
          Alcotest.test_case "build deterministic" `Quick
            test_build_deterministic;
          Alcotest.test_case "routes reach in dist hops" `Quick
            test_routes_reach;
          Alcotest.test_case "rack grouping" `Quick test_groups;
        ] );
      ( "channels",
        [
          Alcotest.test_case "fair-lossy rate" `Quick test_fair_lossy_rate;
          Alcotest.test_case "eventually-timely clamp" `Quick
            test_eventually_timely_clamp;
        ] );
      ( "faults",
        [
          Alcotest.test_case "edge cut and heal" `Quick test_edge_cut_and_heal;
          Alcotest.test_case "edge degrade" `Quick test_edge_degrade;
          Alcotest.test_case "rack cut" `Quick test_rack_cut;
          Alcotest.test_case "edge fault plan" `Quick test_edge_fault_plan;
          Alcotest.test_case "plan rejects a non-edge" `Quick
            test_plan_rejects_non_edge;
          Alcotest.test_case "plan rejects a missing rack" `Quick
            test_plan_rejects_missing_rack;
        ] );
      ( "digests",
        [
          Alcotest.test_case "spec path keeps the pin" `Quick
            test_spec_path_keeps_pin;
          Alcotest.test_case "spec path keeps the faulted pin" `Quick
            test_spec_path_keeps_faulted_pin;
          Alcotest.test_case "spec path keeps the relay pin" `Quick
            test_spec_path_keeps_relay_pin;
          Alcotest.test_case "wheel vs heap on routed run" `Quick
            test_routed_wheel_heap_agree;
          Alcotest.test_case "routed determinism" `Quick
            test_routed_deterministic;
          Alcotest.test_case "routed snapshot restore" `Quick
            test_routed_snapshot_restore;
        ] );
    ]
