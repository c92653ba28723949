(* Tests for the fault-injection subsystem: plan validation, determinism of
   faulted runs (pinned digest, pool-size invariance), crash–recovery
   re-election, the adaptive adversary, and — most importantly — that an
   empty plan leaves the event stream exactly as it was before the fault
   API existed (the PR 3 digest pin). *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let str_t = Alcotest.string
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

(* ------------------------------------------------------ plan validation *)

let rejected f = try ignore (f ()); false with Invalid_argument _ -> true

let test_plan_validation () =
  let v plan = Fault.Plan.validate ~n:4 plan in
  check bool_t "pid out of range" true
    (rejected (fun () -> v Fault.Plan.(empty |> crash 4 ~at:(sec 1))));
  check bool_t "heal before form" true
    (rejected (fun () ->
         v Fault.Plan.(empty |> partition ~at:(sec 2) ~heal_at:(sec 1) [ [ 0 ] ])));
  check bool_t "pid in two groups" true
    (rejected (fun () ->
         v
           Fault.Plan.(
             empty |> partition ~at:(sec 1) ~heal_at:(sec 2) [ [ 0; 1 ]; [ 1 ] ])));
  check bool_t "recover without crash" true
    (rejected (fun () -> v Fault.Plan.(empty |> recover 1 ~at:(sec 1))));
  check bool_t "double crash" true
    (rejected (fun () ->
         v Fault.Plan.(empty |> crash 1 ~at:(sec 1) |> crash 1 ~at:(sec 2))));
  check bool_t "crash/recover/crash is fine" false
    (rejected (fun () ->
         v
           Fault.Plan.(
             empty |> crash 1 ~at:(sec 1) |> recover 1 ~at:(sec 2)
             |> crash 1 ~at:(sec 3))));
  check bool_t "dup burst with negative extra" true
    (rejected (fun () ->
         v
           Fault.Plan.(
             empty
             |> dup_burst ~at:(sec 1) ~until:(sec 2)
                  ~extra:(Sim.Time.of_us (-1)))))

let test_outage_windows () =
  let plan =
    Fault.Plan.(
      empty
      |> partition ~at:(sec 1) ~heal_at:(sec 2) [ [ 0 ] ]
      |> crash 1 ~at:(sec 3)
      |> recover 1 ~at:(sec 4)
      |> crash 2 ~at:(sec 5) (* permanent: not an outage window *))
  in
  check int_t "two windows" 2 (List.length (Fault.Plan.outage_windows plan));
  check int_t "downtime within horizon is clipped"
    (Sim.Time.to_us (ms 500))
    (Sim.Time.to_us
       (Fault.Plan.partition_downtime ~horizon:(ms 1500) plan))

(* --------------------------------------------- determinism under faults *)

let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3

let env =
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })

(* One of everything: a partition over the center, a crash with recovery,
   and a duplication burst, all inside the 2 sim-s horizon. *)
let busy_plan =
  Fault.Plan.(
    empty
    |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
    |> crash 0 ~at:(ms 600)
    |> recover 0 ~at:(ms 1200)
    |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))

let spec_with plan =
  Harness.Run.Spec.(
    default |> with_horizon (sec 2) |> with_digest true |> with_plan plan)

let digest_of ~plan ~seed =
  let result = Harness.Run.run ~spec:(spec_with plan) ~env ~seed () in
  Option.get result.Harness.Run.digest

let test_plan_free_matches_pr3_pin () =
  (* The empty plan must not add, remove or reorder a single event: this is
     the exact digest test_obs pinned before the fault API existed. *)
  check str_t "empty plan = pre-fault-API stream" "d04e0b6bb1a89956"
    (Obs.Digest.to_hex (digest_of ~plan:Fault.Plan.empty ~seed:7L))

let test_faulted_digest_deterministic () =
  check bool_t "same (seed, plan), same digest" true
    (Int64.equal (digest_of ~plan:busy_plan ~seed:7L)
       (digest_of ~plan:busy_plan ~seed:7L));
  check bool_t "the plan changes the stream" false
    (Int64.equal (digest_of ~plan:busy_plan ~seed:7L)
       (digest_of ~plan:Fault.Plan.empty ~seed:7L))

let test_faulted_digest_pinned () =
  (* Faulted regression pin, same contract as the plan-free one: a change
     means fault actions fire at different times or alter the simulation —
     deliberate changes must update the pin. *)
  check str_t "pinned faulted digest for seed 7" "6974643acde923c2"
    (Obs.Digest.to_hex (digest_of ~plan:busy_plan ~seed:7L))

let test_faulted_digest_jobs_invariant () =
  (* The determinism oracle, now with every fault action live: fanning the
     same seeds over 1, 2 or 4 domains must produce identical digests. *)
  let seeds = [ 3L; 5L; 7L; 11L ] in
  let sweep pool =
    Parallel.Pool.map pool (fun seed -> digest_of ~plan:busy_plan ~seed) seeds
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
    [ 2; 4 ];
  check bool_t "seeds discriminated" true
    (List.length (List.sort_uniq Int64.compare sequential) = 4)

(* ----------------------------------------- partition and re-election *)

(* Default config closes receiving rounds at half the sending rate, so the
   receiving side lags the tags by an ever-growing buffer and a fault's
   effect on elections surfaces only when the lagging rounds reach the
   cut-window tags — seconds after the wall-clock fault, stretched by the
   skew (DESIGN.md §12). The fault scenarios pin [initial_timeout] to
   [beta] so receiving rounds track sending rounds and the echo is prompt:
   the run then visibly loses agreement near the fault and recovers within
   an affordable horizon. *)
let fault_config ~n ~t =
  {
    (Omega.Config.default ~n ~t Omega.Config.Fig3) with
    Omega.Config.initial_timeout = Sim.Time.of_ms 10;
  }

let test_partition_heals_and_reelects () =
  (* Isolate the star's center for 4 s mid-run: agreement must be lost (its
     ALIVEs stop arriving) and must come back after the heal, with the
     center elected again — the run stabilizes despite the fault. *)
  let n = 8 and t = 3 and center = 6 in
  let env =
    Scenarios.Env.make (fault_config ~n ~t)
      (Scenarios.Scenario.Rotating_star { center })
  in
  let plan =
    Fault.Plan.(
      empty |> partition ~at:(sec 8) ~heal_at:(sec 12) [ [ center ] ])
  in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          default |> with_horizon (sec 40) |> with_plan plan)
      ~env ~seed:7L ()
  in
  check bool_t "stabilized after the heal" true
    (match result.Harness.Run.stabilized_at with
    | Some at -> Sim.Time.(at > sec 12)
    | None -> false);
  check (Alcotest.option int_t) "the center again" (Some center)
    result.Harness.Run.final_leader;
  check bool_t "agreement was interrupted" true
    (result.Harness.Run.leadership_epochs >= 2);
  check int_t "downtime accounted" (Sim.Time.to_us (sec 4))
    (Sim.Time.to_us result.Harness.Run.partition_downtime);
  check int_t "no assumption violations (outage rounds masked)" 0
    (match result.Harness.Run.checker with
    | Some r -> List.length r.Scenarios.Checker.violations
    | None -> -1);
  check bool_t "some rounds were masked" true
    (match result.Harness.Run.checker with
    | Some r -> r.Scenarios.Checker.rounds_masked > 0
    | None -> false)

(* -------------------------------------- crash–recovery re-election *)

let test_crash_recovery_reelection () =
  (* Failover regime: the star centers on [first] until round [switch],
     then on [second]. The plan crashes [first] (the elected leader) right
     at the switch and recovers it 4 s later: the survivors must re-elect
     [second], and the recovered process — rejoining with its persisted
     susp_level and catching up to the live round — must agree. *)
  let n = 8 and t = 3 and first = 2 and second = 6 in
  let crash_time = sec 8 in
  let switch = Sim.Time.to_us crash_time / Sim.Time.to_us (ms 10) in
  let env =
    Scenarios.Env.make (fault_config ~n ~t)
      (Scenarios.Scenario.Failover { first; second; switch })
  in
  let plan =
    Fault.Plan.(
      empty |> crash first ~at:crash_time
      |> recover first ~at:(sec 12))
  in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          default |> with_horizon (sec 30) |> with_plan plan)
      ~env ~seed:7L ()
  in
  check bool_t "stabilized after the recovery" true
    (match result.Harness.Run.stabilized_at with
    | Some at -> Sim.Time.(at > sec 8)
    | None -> false);
  check (Alcotest.option int_t) "re-elected the second center" (Some second)
    result.Harness.Run.final_leader;
  check int_t "one recovery applied" 1 result.Harness.Run.recoveries;
  check bool_t "leadership changed hands" true
    (result.Harness.Run.re_elections >= 1)

(* ------------------------------------------------ adaptive adversary *)

let test_adaptive_chases_but_star_center_survives () =
  (* Under a rotating star the adaptive adversary may chase transient
     leaders, but the chase ends at the center: its star links are
     protected by the assumption, so victimizing it cannot raise its
     suspicion levels at the points, and it stays elected. *)
  let n = 8 and t = 3 and center = 6 in
  let env =
    Scenarios.Env.make (fault_config ~n ~t)
      (Scenarios.Scenario.Rotating_star { center })
  in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          default |> with_horizon (sec 25)
          |> with_plan Fault.Plan.(empty |> adaptive ~from:(sec 2)))
      ~env ~seed:7L ()
  in
  check bool_t "still stabilizes" true
    (result.Harness.Run.stabilized_at <> None);
  check (Alcotest.option int_t) "on the center" (Some center)
    result.Harness.Run.final_leader;
  check bool_t "the adversary did move" true
    (result.Harness.Run.adversary_moves >= 1)

let test_adaptive_chaos_never_stabilizes () =
  (* Under Chaos nothing is protected: every leader the processes agree on
     becomes the next victim, so agreement can never last. The tight config
     matters here beyond promptness: [Scenario.victim_delay_us] grows with
     the round tag at [beta] per round, so under the default config — whose
     receiving rounds close at roughly half the tag rate — the delayed
     ALIVEs eventually arrive *before* the laggard receivers close those
     rounds, quietly disarming the adversary late in the run. *)
  let n = 5 and t = 2 in
  let env = Scenarios.Env.make (fault_config ~n ~t) Scenarios.Scenario.Chaos in
  let result =
    Harness.Run.run
      ~spec:
        Harness.Run.Spec.(
          default |> with_horizon (sec 20)
          |> with_plan Fault.Plan.(empty |> adaptive ~from:(sec 1)))
      ~env ~seed:7L ()
  in
  check bool_t "never stabilizes" true
    (result.Harness.Run.stabilized_at = None)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "outage windows" `Quick test_outage_windows;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "empty plan = PR3 pin" `Quick
            test_plan_free_matches_pr3_pin;
          Alcotest.test_case "faulted run deterministic" `Quick
            test_faulted_digest_deterministic;
          Alcotest.test_case "faulted pinned regression" `Quick
            test_faulted_digest_pinned;
          Alcotest.test_case "pool-size invariant" `Quick
            test_faulted_digest_jobs_invariant;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition heals, center re-elected" `Quick
            test_partition_heals_and_reelects;
          Alcotest.test_case "crash-recovery re-election" `Quick
            test_crash_recovery_reelection;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "star center survives the chase" `Quick
            test_adaptive_chases_but_star_center_survives;
          Alcotest.test_case "chaos never stabilizes" `Quick
            test_adaptive_chaos_never_stabilizes;
        ] );
    ]
