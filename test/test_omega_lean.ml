(* Tests for the communication-efficient relay variant (DESIGN.md §15):
   election under timely and star regimes through the shared interface,
   the O(n) packets-per-round contract, accusation-driven re-election
   after a leader crash, and the determinism contract (pinned digest,
   pool-size invariance) every algorithm behind Run.Spec.algo owes. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let str_t = Alcotest.string
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

(* The tight config of the fault/e12 experiments: receiving-side state
   tracks wall time, so relay staleness and monitor periods are prompt. *)
let tight_config ~n ~t =
  {
    (Omega.Config.default ~n ~t Omega.Config.Fig3) with
    Omega.Config.initial_timeout = ms 10;
  }

(* The e12 adversary: 8-round victim blocks beat the relay's staleness
   slack (6 + level), so the star discriminates instead of every process
   stabilizing trivially. *)
let star_params ~n ~t =
  {
    (Scenarios.Scenario.default_params ~n ~t ~beta:(ms 10)) with
    Scenarios.Scenario.rn0 = 2;
    victim_block0 = 8;
    victim_block_step = 0;
  }

(* Full_timely still runs the victim rotation for rounds below [rn0]
   (startup anarchy, default 20 rounds): the gossip family forgets it, but
   the relay tier's max-merged levels are permanent, so "timely" tests set
   [rn0 = 1] — timely from the first tagged round. *)
let timely_env ~n ~t =
  let params =
    {
      (Scenarios.Scenario.default_params ~n ~t ~beta:(ms 10)) with
      Scenarios.Scenario.rn0 = 1;
    }
  in
  Scenarios.Env.make ~params (tight_config ~n ~t)
    Scenarios.Scenario.Full_timely

let relay_spec =
  Harness.Run.Spec.(
    default |> with_check false |> with_algo `Relay)

(* ----------------------------------------------------------- elections *)

let test_timely_elects_min_id () =
  let env = timely_env ~n:8 ~t:3 in
  let result =
    Harness.Run.run
      ~spec:Harness.Run.Spec.(relay_spec |> with_horizon (sec 3))
      ~env ~seed:7L ()
  in
  check (Alcotest.option int_t) "all-timely elects min id" (Some 0)
    result.Harness.Run.final_leader;
  check int_t "nobody suspected" 0 result.Harness.Run.max_susp_level

let test_rotating_star_elects_center () =
  let n = 8 and t = 3 and center = 6 in
  let env =
    Scenarios.Env.make
      ~params:(star_params ~n ~t)
      (tight_config ~n ~t)
      (Scenarios.Scenario.Rotating_star { center })
  in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          relay_spec |> with_horizon (sec 4) |> with_min_stable (sec 1))
      ~env ~seed:7L ()
  in
  check (Alcotest.option int_t) "star elects the center" (Some center)
    result.Harness.Run.final_leader;
  check bool_t "stabilized" true
    (Option.is_some result.Harness.Run.stabilized_at)

let test_leader_crash_reelection () =
  (* Only the monitors can report a dead relay: the crash silences its
     AGGREGATEs, the miss budget runs out, ACCUSEs raise its level past
     everyone else's, and leadership moves to the next process. *)
  let env = timely_env ~n:8 ~t:3 in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          relay_spec |> with_horizon (sec 4)
          |> with_min_stable (sec 1)
          |> with_crashes [ (0, sec 1) ])
      ~env ~seed:7L ()
  in
  check (Alcotest.option int_t) "accusations re-elect the next id" (Some 1)
    result.Harness.Run.final_leader;
  check bool_t "stabilized after the crash" true
    (match result.Harness.Run.stabilized_at with
    | Some at -> Sim.Time.(at > sec 1)
    | None -> false)

(* ------------------------------------------------- message complexity *)

let test_packets_per_round_linear () =
  (* The O(n) contract, the variant's reason to exist: per heartbeat round
     the steady state is one HEARTBEAT per non-relay plus one n-fan-out
     AGGREGATE, ~2n sends. Assert a hard c*n bound with c = 3 (covers
     startup and monitor traffic) at two sizes; the gossip family is
     ~1.5 n^2 under the same oracle, two orders of magnitude above the
     bound at n = 64. *)
  List.iter
    (fun n ->
      let t = (n - 1) / 2 in
      let env = timely_env ~n ~t in
      let result =
        Harness.Run.run
          ~spec:Harness.Run.Spec.(relay_spec |> with_horizon (sec 2))
          ~env ~seed:7L ()
      in
      let rounds = max 1 result.Harness.Run.min_sending_round in
      let per_round = result.Harness.Run.messages_sent / rounds in
      check bool_t
        (Printf.sprintf "n=%d: %d msgs/round <= 3n" n per_round)
        true
        (per_round <= 3 * n))
    [ 16; 64 ]

(* ---------------------------------------------------------- allocation *)

(* The relay tier's steady-state allocation, measured over [Run.advance]
   alone: n = 64 on a fat-tree with eventually-timely links, 2 sim-s.
   Heartbeats of different rounds interleave on the oracle path and
   AGGREGATEs keep raising levels, so the scenario's star rows and the
   store's leader cache are both on this path. The run measures ~1.5 minor
   words per message; a boxed star plan per round puts it at ~8.5. *)
let test_relay_advance_alloc_budget () =
  let n = 64 in
  let config = Omega.Config.default ~n ~t:((n - 1) / 2) Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Rotating_star { center = n - 2 })
  in
  let spec =
    Harness.Run.Spec.(
      relay_spec
      |> with_topology (Net.Topology.Fat_tree { rack = 4 })
      |> with_link_channel
           (Net.Topology.Eventually_timely { gst = sec 1; bound = ms 2 })
      |> with_horizon (sec 2))
  in
  let live = Harness.Run.start ~spec ~env ~seed:7L () in
  let before = Gc.minor_words () in
  Harness.Run.advance live ~until:(sec 2);
  let words = Gc.minor_words () -. before in
  let sent = (Harness.Run.finish live).Harness.Run.messages_sent in
  let per_msg = words /. float_of_int sent in
  check bool_t
    (Printf.sprintf
       "%.2f minor words per message over %d messages (budget 2.5)" per_msg
       sent)
    true (per_msg < 2.5)

(* --------------------------------------------------------- determinism *)

let digest_env =
  Scenarios.Env.make
    (tight_config ~n:4 ~t:1)
    (Scenarios.Scenario.Rotating_star { center = 2 })

let digest_spec =
  Harness.Run.Spec.(relay_spec |> with_horizon (sec 2) |> with_digest true)

let test_digest_pinned () =
  (* Same contract as the gossip family's pins (test_obs/test_fault): the
     relay tier's event stream for a fixed seed is part of the repo's
     determinism oracle. A change means the algorithm sends, delivers or
     suspects differently — deliberate changes must update the pin. *)
  let digest_of seed =
    let result = Harness.Run.run ~spec:digest_spec ~env:digest_env ~seed () in
    Obs.Digest.to_hex (Option.get result.Harness.Run.digest)
  in
  check str_t "pinned relay digest for seed 7" "dc1babe982945dd5"
    (digest_of 7L);
  check bool_t "seeds discriminated" false
    (String.equal (digest_of 7L) (digest_of 8L))

let test_digest_jobs_invariant () =
  let seeds = [ 3L; 5L; 7L; 11L ] in
  let sweep pool =
    Parallel.Pool.map pool
      (fun seed ->
        Option.get
          (Harness.Run.run ~spec:digest_spec ~env:digest_env ~seed ())
            .Harness.Run.digest)
      seeds
  in
  let sequential = sweep Parallel.Pool.sequential in
  check int_t "one digest per seed" 4 (List.length sequential);
  List.iter
    (fun jobs ->
      let parallel = Parallel.Pool.with_pool ~jobs sweep in
      check bool_t
        (Printf.sprintf "jobs=1 and jobs=%d agree" jobs)
        true
        (List.for_all2 Int64.equal sequential parallel))
    [ 2; 4 ]

let () =
  Alcotest.run "omega_lean"
    [
      ( "elections",
        [
          Alcotest.test_case "timely elects min id" `Quick
            test_timely_elects_min_id;
          Alcotest.test_case "rotating star elects center" `Quick
            test_rotating_star_elects_center;
          Alcotest.test_case "leader crash re-election" `Quick
            test_leader_crash_reelection;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "packets/round <= 3n" `Quick
            test_packets_per_round_linear;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "relay advance words/message" `Quick
            test_relay_advance_alloc_budget;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pinned digest" `Quick test_digest_pinned;
          Alcotest.test_case "jobs invariance" `Quick
            test_digest_jobs_invariant;
        ] );
    ]
