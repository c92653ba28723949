(* Tests for the harness: the stability judgment (a pure function with
   subtle cases), the table renderer, and whole runs over several seeds. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

module Stability = Harness.Stability

(* Build samples: one per 100ms, rounds advancing [round_rate] per sample,
   agreed leader given by [leader_at sample_index]. *)
let samples ~count ~round_rate ~leader_at =
  List.init count (fun i ->
      {
        Stability.time = ms (100 * (i + 1));
        round = round_rate * (i + 1);
        agreed = leader_at i;
      })

let judge ?(horizon = sec 30) ?(min_window = sec 6) samples =
  Stability.judge ~horizon ~min_window samples

let test_stable_run () =
  (* Constant leader from sample 50 of 300; plenty of rounds and time. *)
  let s =
    samples ~count:300 ~round_rate:5 ~leader_at:(fun i ->
        if i < 50 then Some (i mod 3) else Some 7)
  in
  let v = judge s in
  check (Alcotest.option Alcotest.int) "leader" (Some 7)
    v.Stability.final_leader;
  check (Alcotest.option Alcotest.int) "suffix starts at sample 51"
    (Some (Sim.Time.to_us (ms 5100)))
    (Option.map Sim.Time.to_us v.Stability.stabilized_at)

let test_never_agreed () =
  let s = samples ~count:100 ~round_rate:5 ~leader_at:(fun _ -> None) in
  let v = judge s in
  check bool_t "no leader" true (v.Stability.final_leader = None);
  check bool_t "not stabilized" true (v.Stability.stabilized_at = None)

let test_anarchy_at_end () =
  let s =
    samples ~count:100 ~round_rate:5 ~leader_at:(fun i ->
        if i < 95 then Some 1 else None)
  in
  check bool_t "ends in anarchy" true
    ((judge s).Stability.stabilized_at = None)

let test_short_suffix_rejected () =
  (* Constant only for the last 20 of 300 samples: fails the round quota. *)
  let s =
    samples ~count:300 ~round_rate:5 ~leader_at:(fun i ->
        if i < 280 then Some (i mod 5) else Some 2)
  in
  let v = judge s in
  check bool_t "leader reported" true (v.Stability.final_leader = Some 2);
  check bool_t "not stabilized" true (v.Stability.stabilized_at = None)

let test_slow_rounds_reject_time_only_suffix () =
  (* The quadratic-slow-down trap: the suffix covers lots of TIME (20 of 60
     samples) but almost no ROUNDS (rounds barely advance at the end). *)
  let s =
    List.init 60 (fun i ->
        {
          Stability.time = ms (500 * (i + 1));
          round = (if i < 40 then 20 * i else 800 + (i - 40));
          agreed = (if i < 40 then Some (i mod 4) else Some 0);
        })
  in
  let v = judge ~horizon:(sec 30) ~min_window:(sec 5) s in
  check bool_t "rejected by round quota" true
    (v.Stability.stabilized_at = None)

let test_interruption_resets_suffix () =
  (* One dissent in the middle of an otherwise stable tail. *)
  let s =
    samples ~count:300 ~round_rate:5 ~leader_at:(fun i ->
        if i = 250 then Some 3 else Some 7)
  in
  let v = judge s in
  (* Suffix restarts at 251: 49 samples * 5 rounds = 245 rounds < quota
     (1500/3). *)
  check bool_t "not stabilized" true (v.Stability.stabilized_at = None)

let test_empty_samples () =
  let v = judge [] in
  check bool_t "empty" true
    (v.Stability.final_leader = None && v.Stability.stabilized_at = None)

(* ------------------------------------------------------------- Table *)

let test_table_cells () =
  check Alcotest.string "ms" "12.5ms" (Harness.Table.ms 12.49);
  check Alcotest.string "nan" "-" (Harness.Table.ms Float.nan);
  check Alcotest.string "yes" "yes" (Harness.Table.yesno true);
  check Alcotest.string "int" "42" (Harness.Table.intc 42)

(* ------------------------------------------------------------- Seeds *)

(* A crash at 3 s, then a rotating star around process 3, under three
   seeds — each with its own adversary plan, since the scenario seed
   follows the engine seed. Every run must stabilize on the center, and
   the assumption checker must report no violation. *)
let test_three_seeds () =
  let n = 5 and t = 2 in
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 15) |> with_crashes [ (0, sec 3) ])
  in
  List.iter
    (fun seed ->
      let env =
        Scenarios.Env.make ~scenario_seed:seed config
          (Scenarios.Scenario.Rotating_star { center = 3 })
      in
      let r = Harness.Run.run ~spec ~env ~seed () in
      let name = Printf.sprintf "seed %Ld" seed in
      check bool_t (name ^ ": stabilized") true
        (Option.is_some r.Harness.Run.stabilized_at);
      check
        Alcotest.(option int)
        (name ^ ": elected the center") (Some 3) r.Harness.Run.final_leader;
      check
        Alcotest.(option int)
        (name ^ ": no checker violations") (Some 0)
        (Option.map
           (fun rep -> List.length rep.Scenarios.Checker.violations)
           r.Harness.Run.checker))
    [ 1L; 2L; 3L ]

let () =
  Alcotest.run "harness"
    [
      ( "stability",
        [
          Alcotest.test_case "stable run" `Quick test_stable_run;
          Alcotest.test_case "never agreed" `Quick test_never_agreed;
          Alcotest.test_case "anarchy at end" `Quick test_anarchy_at_end;
          Alcotest.test_case "short suffix rejected" `Quick
            test_short_suffix_rejected;
          Alcotest.test_case "slow rounds trap" `Quick
            test_slow_rounds_reject_time_only_suffix;
          Alcotest.test_case "interruption resets" `Quick
            test_interruption_resets_suffix;
          Alcotest.test_case "empty" `Quick test_empty_samples;
        ] );
      ("table", [ Alcotest.test_case "cells" `Quick test_table_cells ]);
      ( "seeds",
        [
          Alcotest.test_case "three seeds elect the center" `Slow
            test_three_seeds;
        ] );
    ]
