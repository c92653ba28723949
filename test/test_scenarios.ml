(* Tests for the assumption regimes: plan determinism, witness shape (Q
   sets, S gaps), delay-policy guarantees, and end-to-end checker
   compliance on real runs. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

module Scenario = Scenarios.Scenario
module Checker = Scenarios.Checker

let params ?(n = 8) ?(t = 3) () =
  Scenario.default_params ~n ~t ~beta:(Sim.Time.of_ms 10)

let make ?(seed = 42L) ?(n = 8) ?(t = 3) regime =
  Scenario.create (params ~n ~t ()) regime ~seed

(* ---------------------------------------------------------- plan shape *)

let test_deterministic_plans () =
  let a = make (Scenario.Rotating_star { center = 6 }) in
  let b = make (Scenario.Rotating_star { center = 6 }) in
  for rn = 1 to 200 do
    check bool_t "same plan" true (Scenario.q_set a rn = Scenario.q_set b rn)
  done

let test_seed_changes_plans () =
  let a = make ~seed:1L (Scenario.Rotating_star { center = 6 }) in
  let b = make ~seed:2L (Scenario.Rotating_star { center = 6 }) in
  let differs = ref false in
  for rn = 30 to 130 do
    if Scenario.q_set a rn <> Scenario.q_set b rn then differs := true
  done;
  check bool_t "plans differ across seeds" true !differs

let test_q_set_shape () =
  let s = make (Scenario.Rotating_star { center = 6 }) in
  for rn = 30 to 100 do
    let q = Scenario.q_set s rn in
    check int_t "size t" 3 (List.length q);
    check bool_t "center not a point" true (not (List.mem_assoc 6 q));
    check bool_t "no duplicates" true
      (List.length (List.sort_uniq compare (List.map fst q)) = 3);
    check bool_t "ascending pids" true (List.sort compare q = q)
  done

let test_q_rotates () =
  let s = make (Scenario.Rotating_star { center = 6 }) in
  let sets =
    List.init 50 (fun i ->
        List.sort compare (List.map fst (Scenario.q_set s (30 + i))))
  in
  check bool_t "Q varies across rounds" true
    (List.length (List.sort_uniq compare sets) > 1)

let test_fixed_q_regimes () =
  List.iter
    (fun regime ->
      let s = make regime in
      let q0 = Scenario.q_set s 30 in
      for rn = 31 to 120 do
        check bool_t "Q fixed" true (Scenario.q_set s rn = q0)
      done)
    [
      Scenario.T_source { center = 6 };
      Scenario.Message_pattern { center = 6 };
      Scenario.Combined { center = 6 };
    ]

let test_modes_per_regime () =
  let all_modes regime =
    let s = make regime in
    List.concat_map
      (fun rn -> List.map snd (Scenario.q_set s rn))
      (List.init 80 (fun i -> 30 + i))
  in
  check bool_t "t-source all timely" true
    (List.for_all
       (( = ) Scenario.Timely)
       (all_modes (Scenario.T_source { center = 6 })));
  check bool_t "moving source all timely" true
    (List.for_all
       (( = ) Scenario.Timely)
       (all_modes (Scenario.Moving_source { center = 6 })));
  check bool_t "message pattern all winning" true
    (List.for_all
       (( = ) Scenario.Winning)
       (all_modes (Scenario.Message_pattern { center = 6 })));
  let rotating = all_modes (Scenario.Rotating_star { center = 6 }) in
  check bool_t "rotating star mixes modes" true
    (List.mem Scenario.Timely rotating && List.mem Scenario.Winning rotating)

let test_no_plan_before_rn0 () =
  let s = make (Scenario.Rotating_star { center = 6 }) in
  let p = Scenario.params s in
  for rn = 1 to p.Scenario.rn0 - 1 do
    check bool_t "not in S before rn0" false (Scenario.in_s s rn);
    check int_t "no Q before rn0" 0 (List.length (Scenario.q_set s rn))
  done

let test_intermittent_gaps_bounded () =
  let d = 8 in
  let s = make (Scenario.Intermittent_star { center = 6; d }) in
  let last = ref None in
  let max_gap = ref 0 in
  let in_s_count = ref 0 in
  for rn = 20 to 2000 do
    if Scenario.in_s s rn then begin
      incr in_s_count;
      (match !last with
      | Some prev -> if rn - prev > !max_gap then max_gap := rn - prev
      | None -> ());
      last := Some rn
    end
  done;
  check bool_t "S is infinite-ish" true (!in_s_count > 100);
  check bool_t "gaps bounded by D" true (!max_gap <= d);
  check bool_t "actually intermittent" true (!in_s_count < 1900)

let test_full_timely_and_chaos_have_no_star () =
  check bool_t "full timely no center" true
    (Scenario.center (make Scenario.Full_timely) = None);
  check bool_t "chaos no center" true
    (Scenario.center (make Scenario.Chaos) = None);
  let chaos = make Scenario.Chaos in
  check int_t "chaos never in S" 0
    (List.length
       (List.filter (fun rn -> Scenario.in_s chaos rn)
          (List.init 100 (fun i -> i + 1))))

let test_failover_switches_center () =
  let s = make (Scenario.Failover { first = 2; second = 6; switch = 100 }) in
  check (Alcotest.option int_t) "initial center" (Some 2) (Scenario.center s);
  check (Alcotest.option int_t) "before switch" (Some 2)
    (Scenario.center_at s 99);
  check (Alcotest.option int_t) "after switch" (Some 6)
    (Scenario.center_at s 100);
  check bool_t "pre-switch Q avoids 2" true
    (not (List.mem_assoc 2 (Scenario.q_set s 50)));
  check bool_t "post-switch Q avoids 6" true
    (not (List.mem_assoc 6 (Scenario.q_set s 150)))

let test_create_validation () =
  let bad f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check bool_t "center out of range" true
    (bad (fun () -> make (Scenario.T_source { center = 9 })));
  check bool_t "equal failover centers" true
    (bad (fun () ->
         make (Scenario.Failover { first = 1; second = 1; switch = 100 })));
  check bool_t "switch before rn0" true
    (bad (fun () ->
         make (Scenario.Failover { first = 1; second = 2; switch = 5 })));
  check bool_t "t out of range" true
    (bad (fun () ->
         Scenario.create (params ~n:4 ~t:4 ()) Scenario.Chaos ~seed:1L))

let test_growing_gaps_regime () =
  let s = make (Scenario.Growing_gaps { center = 6; d = 4; f_step = 8 }) in
  (* Gaps respect the per-round bound and actually grow. *)
  let last = ref 19 and max_gap = ref 0 and ok = ref true in
  for rn = 20 to 3000 do
    if Scenario.in_s s rn then begin
      let gap = rn - !last in
      if gap > !max_gap then max_gap := gap;
      if gap > 4 + (8 * (!last / 256)) then ok := false;
      last := rn
    end
  done;
  check bool_t "gaps within the announced bound" true !ok;
  check bool_t "gaps actually grow past any fixed D" true (!max_gap > 12);
  check int_t "f matches the bound shape" (4 + 8)
    (Scenario.f_function s 256);
  check int_t "f is 0 for plain regimes" 0
    (Scenario.f_function (make (Scenario.Intermittent_star { center = 6; d = 4 })) 999)

let test_g_function () =
  let step = Sim.Time.of_ms 1 in
  let s = make (Scenario.Growing_star { center = 6; d = 4; g_step = step }) in
  check int_t "g starts at 0" 0 (Sim.Time.to_us (Scenario.g_function s 1));
  check bool_t "g grows" true
    Sim.Time.(Scenario.g_function s 800 > Scenario.g_function s 80);
  let plain = make (Scenario.Rotating_star { center = 6 }) in
  check int_t "plain regimes have g = 0" 0
    (Sim.Time.to_us (Scenario.g_function plain 1000))

(* A list-based reference generator on the plan stream [Scenario.create]
   splits off the seed: a [Rng.sample] over the non-center pids and one
   [Rng.bool] per point, in round order, with the intermittent regimes'
   gap draw after each S round. A moving source also draws one unused
   fixed set at creation. Entry [rn] is round rn's (in S, Q). *)
let reference_plans ~n ~t ~seed regime ~upto =
  let rng = Dstruct.Rng.split (Dstruct.Rng.create seed) in
  let rn0 = (params ~n ~t ()).Scenario.rn0 in
  let others center = List.filter (( <> ) center) (List.init n Fun.id) in
  let star center =
    List.map
      (fun q ->
        (q, if Dstruct.Rng.bool rng then Scenario.Timely else Scenario.Winning))
      (Dstruct.Rng.sample rng t (others center))
  in
  (match regime with
  | Scenario.Moving_source { center } ->
      ignore (Dstruct.Rng.sample rng t (others center))
  | _ -> ());
  let s_next = ref rn0 in
  let intermittent center rn bound =
    if rn = !s_next then begin
      let q = star center in
      s_next := rn + Dstruct.Rng.int_in rng 1 (max 1 bound);
      (true, q)
    end
    else (false, [])
  in
  Array.init (upto + 1) (fun rn ->
      if rn < max 1 rn0 then (false, [])
      else
        match regime with
        | Scenario.Moving_source { center } ->
            (true, List.map (fun (q, _) -> (q, Scenario.Timely)) (star center))
        | Scenario.Rotating_star { center } -> (true, star center)
        | Scenario.Failover { first; second; switch } ->
            (true, star (if rn < switch then first else second))
        | Scenario.Intermittent_star { center; d } -> intermittent center rn d
        | Scenario.Growing_gaps { center; d; f_step } ->
            intermittent center rn (d + (f_step * (rn / 256)))
        | _ -> invalid_arg "reference_plans: not a drawn regime")

let test_rows_match_reference () =
  List.iter
    (fun (n, t) ->
      List.iter
        (fun regime ->
          List.iter
            (fun seed ->
              let s = make ~seed ~n ~t regime in
              let expected = reference_plans ~n ~t ~seed regime ~upto:400 in
              for rn = 1 to 400 do
                let in_s, q = expected.(rn) in
                let name =
                  Printf.sprintf "%s n=%d seed=%Ld rn=%d"
                    (Scenario.regime_name regime) n seed rn
                in
                check bool_t (name ^ " in S") in_s (Scenario.in_s s rn);
                check bool_t (name ^ " Q") true
                  (List.sort compare q = List.sort compare (Scenario.q_set s rn))
              done)
            [ 42L; 7L ])
        [
          Scenario.Rotating_star { center = n - 2 };
          Scenario.Moving_source { center = n - 2 };
          Scenario.Intermittent_star { center = n - 2; d = 4 };
          Scenario.Growing_gaps { center = n - 2; d = 3; f_step = 2 };
          Scenario.Failover { first = 1; second = n - 3; switch = 100 };
        ])
    [ (8, 3); (64, 21) ]

(* Plans retain about one byte per process per round: after 2000 rounds
   of an n = 64 rotating star the whole scenario holds ~17k words (2048
   rows of n + 1 bytes once the table has doubled, plus the jitter
   streams). A boxed plan per round — a record, a tuple array and a byte
   table in a hash table, ~100 words at this n — breaks the budget. *)
let test_rows_retention () =
  let n = 64 and rounds = 2000 in
  let s = make ~n ~t:21 (Scenario.Rotating_star { center = n - 2 }) in
  for rn = 1 to rounds do
    ignore (Scenario.q_set s rn)
  done;
  let words = Obj.reachable_words (Obj.repr s) in
  let budget = ((n / 8) + 1) * rounds + 4096 in
  check bool_t
    (Printf.sprintf "%d words retained after %d rounds (budget %d)" words
       rounds budget)
    true (words <= budget)

(* ------------------------------------------------------ delay policies *)

let delay_of s ~rn ~src ~dst ~now =
  let d =
    Scenario.oracle_us s ~round_of:Fun.id ~now:(Sim.Time.of_us now) ~seq:0
      ~at:src ~src ~dst rn
  in
  if d < 0 then Alcotest.fail "scenario oracles never drop";
  d

let test_timely_points_within_delta () =
  let s = make (Scenario.T_source { center = 6 }) in
  let p = Scenario.params s in
  let delta = Sim.Time.to_us p.Scenario.delta in
  for rn = 30 to 80 do
    List.iter
      (fun (q, _) ->
        let d = delay_of s ~rn ~src:6 ~dst:q ~now:(rn * 10_000) in
        check bool_t "timely <= delta" true (d <= delta))
      (Scenario.q_set s rn)
  done

let test_winning_center_beats_competitors () =
  let s = make (Scenario.Message_pattern { center = 6 }) in
  for rn = 30 to 60 do
    List.iter
      (fun (q, _) ->
        let now = rn * 9_000 in
        let center_arrival = now + delay_of s ~rn ~src:6 ~dst:q ~now in
        List.iter
          (fun src ->
            if src <> 6 && src <> q then begin
              let a = now + delay_of s ~rn ~src ~dst:q ~now in
              check bool_t "competitor arrives after the center" true
                (a > center_arrival)
            end)
          (List.init 8 Fun.id))
      (Scenario.q_set s rn)
  done

let test_winning_center_not_timely () =
  (* The message-pattern center's delay grows with rn: time-free, not
     timely. *)
  let s = make (Scenario.Message_pattern { center = 6 }) in
  let q = fst (List.hd (Scenario.q_set s 40)) in
  let early = delay_of s ~rn:40 ~src:6 ~dst:q ~now:(40 * 10_000) in
  let q' = fst (List.hd (Scenario.q_set s 4000)) in
  let late = delay_of s ~rn:4000 ~src:6 ~dst:q' ~now:(4000 * 10_000) in
  check bool_t "delay grows without bound" true (late > (2 * early) + 100_000)

let test_victim_looks_crashed () =
  (* Under chaos some process's ALIVE is delayed beyond any horizon. *)
  let s = make Scenario.Chaos in
  let p = Scenario.params s in
  let huge = Sim.Time.to_us p.Scenario.victim_delay in
  let found = ref false in
  for rn = 30 to 60 do
    for src = 0 to 7 do
      let d = delay_of s ~rn ~src ~dst:((src + 1) mod 8) ~now:(rn * 10_000) in
      if d >= huge then found := true
    done
  done;
  check bool_t "a victim exists" true !found

let test_self_messages_fast () =
  let s = make Scenario.Chaos in
  let p = Scenario.params s in
  check int_t "self link min delay"
    (Sim.Time.to_us p.Scenario.min_delay)
    (delay_of s ~rn:50 ~src:3 ~dst:3 ~now:500_000)

(* ------------------------------------- end-to-end checker compliance *)

let run_and_check regime variant =
  let n = 8 and t = 3 in
  let config = Omega.Config.default ~n ~t variant in
  let env = Scenarios.Env.make config regime in
  Harness.Run.run
    ~spec:
      Harness.Run.Spec.(
        default
        |> with_horizon (Sim.Time.of_sec 15)
        |> with_crashes [ (0, Sim.Time.of_sec 4) ])
    ~env ~seed:7L ()

let test_checker_no_violations_star_regimes () =
  List.iter
    (fun regime ->
      let result = run_and_check regime Omega.Config.Fig3 in
      match result.Harness.Run.checker with
      | Some report ->
          check int_t
            (Scenario.regime_name regime ^ " violations")
            0
            (List.length report.Checker.violations);
          check bool_t
            (Scenario.regime_name regime ^ " checked some rounds")
            true
            (report.Checker.rounds_checked > 50)
      | None -> Alcotest.fail "expected a checker report")
    [
      Scenario.T_source { center = 6 };
      Scenario.Moving_source { center = 6 };
      Scenario.Message_pattern { center = 6 };
      Scenario.Combined { center = 6 };
      Scenario.Rotating_star { center = 6 };
      Scenario.Intermittent_star { center = 6; d = 8 };
    ]

let test_checker_detects_violations () =
  (* Feed the checker a trace that deliberately breaks the promise: claim a
     rotating star but deliver everything with chaos delays. *)
  let star = make (Scenario.Rotating_star { center = 6 }) in
  let chaos = make Scenario.Chaos in
  let engine = Sim.Engine.create ~seed:3L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(
        default
        |> with_classify Omega.Message.info
        |> with_oracle_us
             (Scenario.oracle_us chaos ~round_of:Scenario.round_rn_of_omega))
      engine ~n:8
  in
  let checker = Checker.create star in
  Sim.Engine.set_sink engine (Checker.sink checker);
  let config = Omega.Config.default ~n:8 ~t:3 Omega.Config.Fig3 in
  let cluster = Omega.Cluster.create config net in
  Omega.Cluster.start cluster;
  Sim.Engine.run_until engine (Sim.Time.of_sec 15);
  let report =
    Checker.verify checker ~upto_round:400 ~crashed:(fun _ -> false)
  in
  check bool_t "violations found" true
    (List.length report.Checker.violations > 0)

(* The checker on hand-built deliveries of one round in S, one Q point
   per case: the center arriving second (late, so only winning), a
   duplicated center ALIVE (the first arrival fixes position and delay),
   and the center missing after n - t others arrived (a violation). Both
   lanes — the scalar one the network uses and the record one — must
   reach the same report. *)
let test_checker_hand_built () =
  let s = make (Scenario.Rotating_star { center = 6 }) in
  let rn = (Scenario.params s).Scenario.rn0 in
  let q1, q2, q3 =
    match List.map fst (Scenario.q_set s rn) with
    | [ a; b; c ] -> (a, b, c)
    | _ -> Alcotest.fail "expected |Q| = t = 3"
  in
  let late = 10_000_000 and timely = 1 in
  let others q =
    List.filter (fun p -> p <> 6 && p <> q) [ 0; 1; 2; 3; 4; 5; 7 ]
  in
  let deliveries =
    List.concat
      [
        [ (q1, List.hd (others q1), timely); (q1, 6, late) ];
        [
          (q2, List.hd (others q2), timely);
          (q2, 6, late);
          (q2, 6, timely);
        ];
        List.filteri (fun i _ -> i < 5) (others q3)
        |> List.map (fun src -> (q3, src, timely));
      ]
  in
  let feed emit =
    List.iteri
      (fun i (dst, src, delay) ->
        let now = 20_000_000 + i in
        emit ~now ~sent_at:(now - delay) ~src ~dst)
      deliveries
  in
  let deliver c ~now ~sent_at ~src ~dst =
    Checker.on_event c
      (Obs.Event.Deliver
         { now; sent_at; seq = 0; src; dst; kind = "ALIVE"; round = rn;
           bytes = 0 })
  in
  let info = { Obs.Event.kind = "ALIVE"; round = rn; bytes = 0 } in
  let scalar = Checker.create s in
  let sink = Checker.sink scalar in
  feed (fun ~now ~sent_at ~src ~dst ->
      Obs.Sink.emit_deliver sink ~now ~sent_at ~seq:0 ~src ~dst info);
  let record = Checker.create s in
  feed (deliver record);
  let verify c = Checker.verify c ~upto_round:rn ~crashed:(fun _ -> false) in
  let r = verify scalar in
  check int_t "three points" 3 r.Checker.points_checked;
  check int_t "no point is timely" 0 r.Checker.points_timely;
  check int_t "second and duplicated centers are winning" 2
    r.Checker.points_winning;
  check (Alcotest.list (Alcotest.pair int_t int_t))
    "the missing center is the one violation" [ (rn, q3) ]
    (List.map (fun v -> (v.Checker.rn, v.Checker.q)) r.Checker.violations);
  check bool_t "record lane agrees" true (verify record = r);
  (* One fewer arrival and the missing center is only in flight. *)
  let short = Checker.create s in
  List.iteri
    (fun i src ->
      if i < 4 then deliver short ~now:(1 + i) ~sent_at:0 ~src ~dst:q3)
    (others q3);
  let r = verify short in
  check int_t "n - t - 1 others: skipped (the other points have none)" 3
    r.Checker.points_skipped;
  check int_t "n - t - 1 others: no violation" 0
    (List.length r.Checker.violations)

let test_describe_strings () =
  let has_sub sub str =
    let n = String.length sub and m = String.length str in
    let rec scan i = i + n <= m && (String.sub str i n = sub || scan (i + 1)) in
    scan 0
  in
  check bool_t "intermittent describe" true
    (has_sub "intermittent-star"
       (Scenario.describe (make (Scenario.Intermittent_star { center = 6; d = 4 }))));
  check bool_t "failover describe" true
    (has_sub "2->6"
       (Scenario.describe
          (make (Scenario.Failover { first = 2; second = 6; switch = 100 }))));
  check bool_t "chaos describe" true
    (has_sub "chaos" (Scenario.describe (make Scenario.Chaos)))

let test_round_of_omega () =
  check int_t "alive tagged" 9
    (Scenario.round_rn_of_omega
       (Omega.Message.Alive { rn = 9; susp_level = [| 0 |] }));
  check int_t "heartbeat tagged" 4
    (Scenario.round_rn_of_omega (Omega.Message.Heartbeat { rn = 4 }));
  check int_t "suspicion untagged" (-1)
    (Scenario.round_rn_of_omega
       (Omega.Message.Suspicion { rn = 9; suspects = [] }))

let qtest = QCheck_alcotest.to_alcotest

let prop_intermittent_gaps =
  QCheck.Test.make ~name:"intermittent S gaps bounded for any D/seed" ~count:40
    QCheck.(pair (int_range 1 20) small_int)
    (fun (d, seed) ->
      let s =
        make
          ~seed:(Int64.of_int (seed + 1))
          (Scenario.Intermittent_star { center = 6; d })
      in
      let ok = ref true in
      let last = ref 19 in
      (* rn0 - 1: the first S round must be within D of rn0. *)
      for rn = 20 to 800 do
        if Scenario.in_s s rn then begin
          if rn - !last > d then ok := false;
          last := rn
        end
      done;
      !ok && 800 - !last <= d)

let () =
  Alcotest.run "scenarios"
    [
      ( "plans",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_plans;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_plans;
          Alcotest.test_case "Q shape" `Quick test_q_set_shape;
          Alcotest.test_case "Q rotates" `Quick test_q_rotates;
          Alcotest.test_case "fixed-Q regimes" `Quick test_fixed_q_regimes;
          Alcotest.test_case "modes per regime" `Quick test_modes_per_regime;
          Alcotest.test_case "nothing before rn0" `Quick test_no_plan_before_rn0;
          Alcotest.test_case "intermittent gaps" `Quick
            test_intermittent_gaps_bounded;
          Alcotest.test_case "no star for symmetric regimes" `Quick
            test_full_timely_and_chaos_have_no_star;
          Alcotest.test_case "failover center switch" `Quick
            test_failover_switches_center;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "g function" `Quick test_g_function;
          Alcotest.test_case "growing gaps" `Quick test_growing_gaps_regime;
          Alcotest.test_case "describe" `Quick test_describe_strings;
          Alcotest.test_case "round_of_omega" `Quick test_round_of_omega;
          Alcotest.test_case "rows match the reference generator" `Quick
            test_rows_match_reference;
          Alcotest.test_case "rows retention" `Quick test_rows_retention;
          qtest prop_intermittent_gaps;
        ] );
      ( "delays",
        [
          Alcotest.test_case "timely within delta" `Quick
            test_timely_points_within_delta;
          Alcotest.test_case "winning order" `Quick
            test_winning_center_beats_competitors;
          Alcotest.test_case "winning not timely" `Quick
            test_winning_center_not_timely;
          Alcotest.test_case "victims look crashed" `Quick
            test_victim_looks_crashed;
          Alcotest.test_case "self messages fast" `Quick test_self_messages_fast;
        ] );
      ( "checker",
        [
          Alcotest.test_case "star regimes comply" `Slow
            test_checker_no_violations_star_regimes;
          Alcotest.test_case "detects violations" `Quick
            test_checker_detects_violations;
          Alcotest.test_case "hand-built deliveries" `Quick
            test_checker_hand_built;
        ] );
    ]
