(* Tests for the Omega-based consensus: unit behaviour of the ballot
   handlers, safety under adversarial oracles and delays (indulgence),
   liveness under a stable leader, and the atomic-broadcast layer. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let us = Sim.Time.of_us
let ms = Sim.Time.of_ms

let instant ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 1

(* A cluster with a FIXED (possibly bad) leader oracle per process. *)
let cluster ?(n = 5) ?(t = 2) ?(oracle = fun _p () -> 0)
    ?(net_oracle = instant) ?(seed = 9L) () =
  let engine = Sim.Engine.create ~seed () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us net_oracle)
      engine ~n
  in
  let c =
    Consensus.Single.create net ~oracle ~retry_every:(ms 30) ~crash_bound:t
  in
  Consensus.Single.start c;
  (engine, net, c)

(* ------------------------------------------------------------ liveness *)

let test_decides_with_stable_leader () =
  let engine, _, c = cluster () in
  for p = 0 to 4 do
    Consensus.Single.propose c p (10 + p)
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check (Alcotest.option int_t) "uniform decision" (Some 10)
    (Consensus.Single.uniform_decision c);
  check bool_t "decision time recorded" true
    (Consensus.Single.last_decision_time c <> None)

let test_decided_value_is_a_proposal () =
  let engine, _, c = cluster ~oracle:(fun _ () -> 3) () in
  for p = 0 to 4 do
    Consensus.Single.propose c p (100 + p)
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  match Consensus.Single.uniform_decision c with
  | Some v -> check bool_t "validity" true (v >= 100 && v <= 104)
  | None -> Alcotest.fail "no decision with a stable leader"

let test_leader_crash_failover () =
  (* The oracle switches from 0 to 1 at 500ms; 0 crashes then. *)
  let engine = Sim.Engine.create ~seed:9L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n:5
  in
  let current_leader = ref 0 in
  let c =
    Consensus.Single.create net
      ~oracle:(fun _p () -> !current_leader)
      ~retry_every:(ms 30) ~crash_bound:2
  in
  Consensus.Single.start c;
  (* Delay proposals so nothing decides before the crash. *)
  ignore
    (Sim.Engine.schedule_at engine (ms 600) (fun () ->
         for p = 0 to 4 do
           Consensus.Single.propose c p (20 + p)
         done));
  ignore
    (Sim.Engine.schedule_at engine (ms 500) (fun () ->
         Net.Network.crash net 0;
         current_leader := 1));
  Sim.Engine.run_until engine (Sim.Time.of_sec 3);
  check (Alcotest.option int_t) "decides after failover" (Some 21)
    (Consensus.Single.uniform_decision c)

let test_no_decision_without_proposals () =
  let engine, _, c = cluster () in
  Sim.Engine.run_until engine (Sim.Time.of_sec 1);
  check (Alcotest.option int_t) "nothing to decide" None
    (Consensus.Single.uniform_decision c)

let test_single_proposer_suffices () =
  let engine, _, c = cluster () in
  Consensus.Single.propose c 0 77;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check (Alcotest.option int_t) "lone proposal decided" (Some 77)
    (Consensus.Single.uniform_decision c)

(* -------------------------------------------------------------- safety *)

(* Indulgence: whatever the oracle says (here: everyone believes THEY are
   the leader, the worst dueling case), at most one value is ever decided. *)
let test_safety_under_dueling_leaders () =
  let engine, net, c = cluster ~oracle:(fun p () -> p) () in
  for p = 0 to 4 do
    Consensus.Single.propose c p (50 + p)
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 5);
  let decided =
    List.filter_map (fun (_, d) -> d) (Consensus.Single.decisions c)
  in
  check bool_t "all decided values equal" true
    (match decided with
    | [] -> true
    | v :: rest -> List.for_all (( = ) v) rest);
  ignore net

let prop_consensus_safety =
  (* Random delays, random oracle outputs, a random minority crash set:
     agreement and validity always hold among decided processes. *)
  QCheck.Test.make ~name:"consensus agreement+validity under chaos" ~count:60
    QCheck.(triple small_int small_int (int_bound 4))
    (fun (seed, oracle_seed, crashed) ->
      let n = 5 and t = 2 in
      let engine = Sim.Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      let delay_rng = Dstruct.Rng.create (Int64.of_int (seed + 100)) in
      let net_oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ =
        Dstruct.Rng.int delay_rng 50_000
      in
      let net =
        Net.Network.of_spec
          Net.Spec.(default |> with_oracle_us net_oracle)
          engine ~n
      in
      let oracle_rng = Dstruct.Rng.create (Int64.of_int (oracle_seed + 1)) in
      let c =
        Consensus.Single.create net
          ~oracle:(fun _p () -> Dstruct.Rng.int oracle_rng n)
          ~retry_every:(ms 20) ~crash_bound:t
      in
      Consensus.Single.start c;
      for p = 0 to n - 1 do
        Consensus.Single.propose c p (1000 + p)
      done;
      (* Crash at most t processes at random times. *)
      let crash_rng = Dstruct.Rng.create (Int64.of_int (crashed + 7)) in
      let victims = Dstruct.Rng.sample crash_rng (min crashed t) [ 0; 1; 2; 3; 4 ] in
      List.iter
        (fun v ->
          ignore
            (Sim.Engine.schedule_at engine
               (us (Dstruct.Rng.int crash_rng 1_000_000))
               (fun () -> Net.Network.crash net v)))
        victims;
      Sim.Engine.run_until engine (Sim.Time.of_sec 3);
      let decided =
        List.filter_map (fun (_, d) -> d) (Consensus.Single.decisions c)
      in
      let agreement =
        match decided with
        | [] -> true
        | v :: rest -> List.for_all (( = ) v) rest
      in
      let validity = List.for_all (fun v -> v >= 1000 && v < 1000 + n) decided in
      agreement && validity)

let test_quorum_requires_majority () =
  let raised =
    try
      let engine = Sim.Engine.create ~seed:1L () in
      let net =
        Net.Network.of_spec
          Net.Spec.(default |> with_oracle_us instant)
          engine ~n:4
      in
      ignore
        (Consensus.Single.create net
           ~oracle:(fun _ () -> 0)
           ~retry_every:(ms 30) ~crash_bound:2);
      false
    with Invalid_argument _ -> true
  in
  check bool_t "t >= n/2 rejected" true raised

(* ------------------------------------------------------ atomic broadcast *)

let broadcast_cluster ?(n = 5) ?(t = 2) ?(leader = fun () -> 0) () =
  let engine = Sim.Engine.create ~seed:13L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n
  in
  let nodes =
    Array.init n (fun me ->
        Consensus.Broadcast.create net ~me ~oracle:leader
          ~retry_every:(ms 25) ~crash_bound:t ~equal:Int.equal)
  in
  Array.iter Consensus.Broadcast.start nodes;
  (engine, net, nodes)

let test_broadcast_total_order () =
  let engine, net, nodes = broadcast_cluster () in
  (* Commands submitted at different replicas, interleaved in time. *)
  List.iteri
    (fun i cmd ->
      ignore
        (Sim.Engine.schedule_at engine
           (ms (30 * i))
           (fun () -> Consensus.Broadcast.submit nodes.(cmd mod 5) cmd)))
    [ 11; 22; 33; 44; 55; 66; 77; 88 ];
  Sim.Engine.run_until engine (Sim.Time.of_sec 5);
  let sequences =
    List.map (fun p -> Consensus.Broadcast.delivered nodes.(p))
      (Net.Network.correct net)
  in
  let reference = List.hd sequences in
  check int_t "all commands delivered" 8 (List.length reference);
  check bool_t "identical sequences" true
    (List.for_all (( = ) reference) sequences);
  check bool_t "no duplicates" true
    (List.length (List.sort_uniq compare reference) = 8)

let test_broadcast_survives_leader_crash () =
  let engine = Sim.Engine.create ~seed:13L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n:5
  in
  let current = ref 0 in
  let nodes =
    Array.init 5 (fun me ->
        Consensus.Broadcast.create net ~me
          ~oracle:(fun () -> !current)
          ~retry_every:(ms 25) ~crash_bound:2 ~equal:Int.equal)
  in
  Array.iter Consensus.Broadcast.start nodes;
  List.iteri
    (fun i cmd ->
      ignore
        (Sim.Engine.schedule_at engine
           (ms (100 * i))
           (fun () -> Consensus.Broadcast.submit nodes.(1 + (i mod 3)) cmd)))
    [ 5; 6; 7; 8; 9; 10 ];
  ignore
    (Sim.Engine.schedule_at engine (ms 250) (fun () ->
         Net.Network.crash net 0;
         current := 2));
  Sim.Engine.run_until engine (Sim.Time.of_sec 6);
  let sequences =
    List.map (fun p -> Consensus.Broadcast.delivered nodes.(p))
      (Net.Network.correct net)
  in
  let reference = List.hd sequences in
  check int_t "all six delivered despite crash" 6 (List.length reference);
  check bool_t "identical sequences" true
    (List.for_all (( = ) reference) sequences)

let test_broadcast_dedups_resubmission () =
  let engine, net, nodes = broadcast_cluster () in
  Consensus.Broadcast.submit nodes.(1) 42;
  Consensus.Broadcast.submit nodes.(1) 42;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  ignore net;
  check (Alcotest.list int_t) "delivered once" [ 42 ]
    (Consensus.Broadcast.delivered nodes.(0));
  check bool_t "instances decided" true
    (Consensus.Broadcast.instances_decided nodes.(0) >= 1)

(* ----------------------------------- acceptor state machine (mocked) *)

(* A mock transport recording outgoing messages lets us drive the ballot
   handlers directly and assert exact replies. *)
let mock_node ?(n = 5) ?(me = 0) () =
  let engine = Sim.Engine.create ~seed:1L () in
  let sent = ref [] in
  let transport =
    {
      Consensus.Node.engine;
      n;
      send = (fun ~dst m -> sent := (dst, m) :: !sent);
      halted = (fun () -> false);
    }
  in
  let node =
    Consensus.Node.create transport ~me
      ~leader_oracle:(fun () -> me)
      ~retry_every:(ms 50) ~crash_bound:2
  in
  (node, sent)

let test_prepare_promise_then_nack () =
  let node, sent = mock_node () in
  Consensus.Node.handle node ~src:3 (Consensus.Message.Prepare { ballot = 8 });
  (match !sent with
  | [ (3, Consensus.Message.Promise { ballot = 8; accepted = None }) ] -> ()
  | _ -> Alcotest.fail "expected a Promise(8, none) to 3");
  sent := [];
  (* A lower ballot must be refused with the promised number. *)
  Consensus.Node.handle node ~src:4 (Consensus.Message.Prepare { ballot = 5 });
  (match !sent with
  | [ (4, Consensus.Message.Nack { ballot = 5; promised = 8 }) ] -> ()
  | _ -> Alcotest.fail "expected Nack(5, promised=8) to 4")

let test_accept_records_and_reports () =
  let node, sent = mock_node () in
  Consensus.Node.handle node ~src:2 (Consensus.Message.Prepare { ballot = 8 });
  sent := [];
  Consensus.Node.handle node ~src:2
    (Consensus.Message.Accept { ballot = 8; value = 42 });
  (match !sent with
  | [ (2, Consensus.Message.Accepted { ballot = 8; value = 42 }) ] -> ()
  | _ -> Alcotest.fail "expected Accepted(8,42) to 2");
  sent := [];
  (* A later Prepare must report the accepted pair. *)
  Consensus.Node.handle node ~src:1 (Consensus.Message.Prepare { ballot = 20 });
  (match !sent with
  | [ (1, Consensus.Message.Promise { ballot = 20; accepted = Some (8, 42) }) ]
    -> ()
  | _ -> Alcotest.fail "expected Promise carrying (8,42)")

let test_stale_accept_nacked () =
  let node, sent = mock_node () in
  Consensus.Node.handle node ~src:2 (Consensus.Message.Prepare { ballot = 9 });
  sent := [];
  Consensus.Node.handle node ~src:3
    (Consensus.Message.Accept { ballot = 4; value = 7 });
  (match !sent with
  | [ (3, Consensus.Message.Nack { ballot = 4; promised = 9 }) ] -> ()
  | _ -> Alcotest.fail "expected Nack for a stale Accept")

let test_decide_adopted_and_relayed_once () =
  let node, sent = mock_node ~n:5 () in
  Consensus.Node.handle node ~src:4 (Consensus.Message.Decide { value = 99 });
  check (Alcotest.option int_t) "adopted" (Some 99)
    (Consensus.Node.decision node);
  let relays =
    List.length
      (List.filter
         (function _, Consensus.Message.Decide _ -> true | _ -> false)
         !sent)
  in
  check int_t "relayed to all (once)" 5 relays;
  sent := [];
  Consensus.Node.handle node ~src:3 (Consensus.Message.Decide { value = 99 });
  check int_t "no second relay" 0 (List.length !sent)

(* --------------------------------------------------------- unit details *)

let test_message_ballot_of () =
  check int_t "prepare" 7
    (Consensus.Message.ballot_of (Consensus.Message.Prepare { ballot = 7 }));
  check int_t "decide has none" (-1)
    (Consensus.Message.ballot_of (Consensus.Message.Decide { value = 3 }))

let test_ballots_started_counted () =
  let engine, _, c = cluster ~oracle:(fun _ () -> 2) () in
  Consensus.Single.propose c 2 9;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1);
  check bool_t "leader started at least one ballot" true
    (Consensus.Node.ballots_started (Consensus.Single.node c 2) >= 1);
  check int_t "non-leader started none" 0
    (Consensus.Node.ballots_started (Consensus.Single.node c 3))

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "consensus"
    [
      ( "liveness",
        [
          Alcotest.test_case "stable leader decides" `Quick
            test_decides_with_stable_leader;
          Alcotest.test_case "validity" `Quick test_decided_value_is_a_proposal;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover;
          Alcotest.test_case "no proposals, no decision" `Quick
            test_no_decision_without_proposals;
          Alcotest.test_case "single proposer" `Quick test_single_proposer_suffices;
        ] );
      ( "safety",
        [
          Alcotest.test_case "dueling leaders" `Quick
            test_safety_under_dueling_leaders;
          Alcotest.test_case "majority required" `Quick
            test_quorum_requires_majority;
          qtest prop_consensus_safety;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "total order" `Quick test_broadcast_total_order;
          Alcotest.test_case "leader crash" `Quick
            test_broadcast_survives_leader_crash;
          Alcotest.test_case "dedup" `Quick test_broadcast_dedups_resubmission;
        ] );
      ( "acceptor",
        [
          Alcotest.test_case "promise then nack" `Quick
            test_prepare_promise_then_nack;
          Alcotest.test_case "accept records" `Quick
            test_accept_records_and_reports;
          Alcotest.test_case "stale accept nacked" `Quick
            test_stale_accept_nacked;
          Alcotest.test_case "decide relayed once" `Quick
            test_decide_adopted_and_relayed_once;
        ] );
      ( "unit",
        [
          Alcotest.test_case "ballot_of" `Quick test_message_ballot_of;
          Alcotest.test_case "ballots counted" `Quick test_ballots_started_counted;
        ] );
    ]
