(* Tests for the core leader algorithm (Figures 1-3): message handlers on
   hand-built traces, the window [*] and bounded [**] conditions, closure
   rules, leader selection, and whole-cluster behaviour under a timely
   oracle. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let us = Sim.Time.of_us

let instant ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 1

(* A single node under test (pid 0) in an n-process network; messages are
   injected from the other pids. The node is NOT started: its timer never
   expires, so receiving rounds do not close and the suspicion handlers can
   be exercised in isolation. *)
let solo ?(n = 4) ?(t = 1) ?(closure = Omega.Config.Conjunction) variant =
  let engine = Sim.Engine.create ~seed:1L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n
  in
  let config = { (Omega.Config.default ~n ~t variant) with closure } in
  let node = Omega.Node.create config net ~me:0 in
  (engine, net, node)

let inject engine net ~src msg =
  Net.Network.send net ~src ~dst:0 msg;
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (us 2))

let alive ~rn sl = Omega.Message.Alive { rn; susp_level = Array.of_list sl }
let susp ~rn suspects = Omega.Message.Suspicion { rn; suspects }

(* --------------------------------------------------- gossip (lines 4-5) *)

let test_gossip_merge_pointwise_max () =
  let engine, net, node = solo Omega.Config.Fig1 in
  inject engine net ~src:1 (alive ~rn:1 [ 0; 5; 0; 2 ]);
  check (Alcotest.list int_t) "merged" [ 0; 5; 0; 2 ]
    (Array.to_list (Omega.Node.susp_level node));
  inject engine net ~src:2 (alive ~rn:2 [ 1; 3; 7; 0 ]);
  check (Alcotest.list int_t) "pointwise max" [ 1; 5; 7; 2 ]
    (Array.to_list (Omega.Node.susp_level node))

let test_gossip_never_decreases () =
  let engine, net, node = solo Omega.Config.Fig1 in
  inject engine net ~src:1 (alive ~rn:1 [ 9; 9; 9; 9 ]);
  inject engine net ~src:1 (alive ~rn:2 [ 0; 0; 0; 0 ]);
  check (Alcotest.list int_t) "monotone" [ 9; 9; 9; 9 ]
    (Array.to_list (Omega.Node.susp_level node))

let test_gossip_merged_even_for_late_rounds () =
  (* Line 5 runs before the line-6 freshness check: gossip always merges. *)
  let engine, net, node = solo Omega.Config.Fig1 in
  inject engine net ~src:1 (alive ~rn:50 [ 0; 0; 0; 0 ]);
  inject engine net ~src:2 (alive ~rn:1 [ 0; 0; 0; 4 ]);
  check int_t "late round gossip merged" 4 (Omega.Node.susp_level node).(3)

(* -------------------------------------- suspicion counting (lines 13-18) *)

let test_quorum_increments_level_fig1 () =
  (* n=4, t=1 => alpha = 3 suspicions needed. *)
  let engine, net, node = solo Omega.Config.Fig1 in
  inject engine net ~src:1 (susp ~rn:5 [ 2 ]);
  inject engine net ~src:2 (susp ~rn:5 [ 2 ]);
  check int_t "below quorum" 0 (Omega.Node.susp_level node).(2);
  inject engine net ~src:3 (susp ~rn:5 [ 2 ]);
  check int_t "quorum reached" 1 (Omega.Node.susp_level node).(2);
  check int_t "one local increment" 1 (Omega.Node.local_increments node)

let test_different_rounds_do_not_pool () =
  let engine, net, node = solo Omega.Config.Fig1 in
  inject engine net ~src:1 (susp ~rn:5 [ 2 ]);
  inject engine net ~src:2 (susp ~rn:5 [ 2 ]);
  inject engine net ~src:3 (susp ~rn:6 [ 2 ]);
  check int_t "no pooling across rounds" 0 (Omega.Node.susp_level node).(2)

let test_multi_suspect_message () =
  let engine, net, node = solo Omega.Config.Fig1 in
  List.iter
    (fun src -> inject engine net ~src (susp ~rn:9 [ 1; 3 ]))
    [ 1; 2; 3 ];
  check int_t "suspect 1" 1 (Omega.Node.susp_level node).(1);
  check int_t "suspect 3" 1 (Omega.Node.susp_level node).(3);
  check int_t "not suspect 2" 0 (Omega.Node.susp_level node).(2)

(* ------------------------------------------- window condition (line [*]) *)

let quorum engine net ~rn k =
  List.iter (fun src -> inject engine net ~src (susp ~rn [ k ])) [ 1; 2; 3 ]

let test_window_allows_consecutive_rounds_fig2 () =
  let engine, net, node = solo Omega.Config.Fig2 in
  (* Level 0: window at rn=10 is {10} alone -> increments. *)
  quorum engine net ~rn:10 2;
  check int_t "first increment" 1 (Omega.Node.susp_level node).(2);
  (* Level 1: window at rn=11 is {10,11}; 10 already has a quorum. *)
  quorum engine net ~rn:11 2;
  check int_t "consecutive round increments" 2 (Omega.Node.susp_level node).(2);
  (* Level 2: rn=13 needs {11,12,13}; 12 is missing. *)
  quorum engine net ~rn:13 2;
  check int_t "gap at 12 blocks" 2 (Omega.Node.susp_level node).(2);
  quorum engine net ~rn:12 2;
  check int_t "filling 12 (window {10..12}) increments" 3
    (Omega.Node.susp_level node).(2)

let test_window_blocks_sparse_quorums_fig2 () =
  let engine, net, node = solo Omega.Config.Fig2 in
  quorum engine net ~rn:10 2;
  check int_t "level 1" 1 (Omega.Node.susp_level node).(2);
  (* Sparse quorums (every other round) never satisfy the window again. *)
  List.iter (fun rn -> quorum engine net ~rn 2) [ 12; 14; 16; 18; 20 ];
  check int_t "sparse quorums blocked at level 1" 1
    (Omega.Node.susp_level node).(2)

let test_fig1_has_no_window () =
  let engine, net, node = solo Omega.Config.Fig1 in
  List.iter (fun rn -> quorum engine net ~rn 2) [ 10; 12; 14; 16; 18 ];
  check int_t "fig1 counts every quorum round" 5
    (Omega.Node.susp_level node).(2)

let test_fg_window_widened_by_f () =
  (* [f] extends the window downward by f(rn): even the first increment
     (level 0) needs f+1 consecutive quorum rounds. *)
  let engine, net, node =
    solo (Omega.Config.Fig3_fg { f = (fun _ -> 1); g = (fun _ -> 0) })
  in
  quorum engine net ~rn:10 2;
  check int_t "single round no longer suffices" 0
    (Omega.Node.susp_level node).(2);
  quorum engine net ~rn:11 2;
  check int_t "two consecutive rounds increment" 1
    (Omega.Node.susp_level node).(2);
  (* Raise the other levels so line [**] (also active in Fig3_fg) does not
     block the next increment. *)
  inject engine net ~src:1 (alive ~rn:11 [ 1; 1; 0; 1 ]);
  (* Level 1: window at 13 is [13-1-1, 13] = {11,12,13}; 12 missing. *)
  quorum engine net ~rn:13 2;
  check int_t "gap blocks" 1 (Omega.Node.susp_level node).(2);
  quorum engine net ~rn:12 2;
  check int_t "window {10..12} filled" 2 (Omega.Node.susp_level node).(2)

(* ------------------------------------------ bounded condition (line [**]) *)

let test_bounded_blocks_non_minimal_fig3 () =
  let engine, net, node = solo Omega.Config.Fig3 in
  (* Raise levels of 1,2,3 via gossip; 0 stays minimal. *)
  inject engine net ~src:1 (alive ~rn:1 [ 0; 3; 3; 3 ]);
  quorum engine net ~rn:10 1;
  check int_t "non-minimal blocked" 3 (Omega.Node.susp_level node).(1);
  quorum engine net ~rn:11 0;
  check int_t "minimal increments" 1 (Omega.Node.susp_level node).(0)

let test_fig2_ignores_bounded_condition () =
  let engine, net, node = solo Omega.Config.Fig2 in
  inject engine net ~src:1 (alive ~rn:1 [ 0; 3; 3; 3 ]);
  (* Level 3 needs the window {7..10} full of quorums. *)
  List.iter (fun rn -> quorum engine net ~rn 1) [ 7; 8; 9; 10 ];
  check int_t "fig2 increments non-minimal entries" 4
    (Omega.Node.susp_level node).(1)

let prop_fig3_lattice_invariant =
  (* Lemma 8: under arbitrary lattice-valid gossip and arbitrary quorum
     patterns, a Fig3 node keeps max - min <= 1. *)
  QCheck.Test.make ~name:"fig3 lattice invariant (Lemma 8)" ~count:100
    QCheck.(
      list_of_size
        Gen.(1 -- 40)
        (pair (int_bound 30) (pair (int_bound 3) (int_bound 20))))
    (fun ops ->
      let engine, net, node = solo Omega.Config.Fig3 in
      List.iter
        (fun (base, (k, rn)) ->
          let rn = rn + 1 in
          if base mod 2 = 0 then begin
            (* Gossip a valid lattice array: entries in {base, base+1}. *)
            let sl =
              List.init 4 (fun i -> base + if (i + base) mod 2 = 0 then 1 else 0)
            in
            inject engine net ~src:1 (alive ~rn sl)
          end
          else quorum engine net ~rn k)
        ops;
      Omega.Node.lattice_invariant_holds node)

(* ----------------------------------------------- leader() (lines 19-21) *)

let test_leader_lexicographic () =
  let engine, net, node = solo Omega.Config.Fig1 in
  check int_t "all zero -> min id" 0 (Omega.Node.leader node);
  inject engine net ~src:1 (alive ~rn:1 [ 2; 1; 1; 3 ]);
  check int_t "min level, then min id" 1 (Omega.Node.leader node)

(* The cached leader ({!Omega.Store}) against a full scan: seeded random
   raises through gossip rows (ALIVE merges into unstarted [Node]s) and
   relay rows (ACCUSEs into unstarted [Lean] processes), one raise per
   delivered message, after which every process's leader is compared
   with a scan of its row. Steps of one or two levels keep ties common,
   and half the raises hit the raised process's current leader — the
   only raise that can move it. Lean's rows are not exposed, so the test
   keeps a model of them. *)
let scan_leader row =
  let best = ref 0 in
  Array.iteri (fun j level -> if level < row.(!best) then best := j) row;
  !best

let test_leader_cache_differential () =
  let n = 6 and steps = 400 in
  let network seed =
    let engine = Sim.Engine.create ~seed () in
    let net =
      Net.Network.of_spec Net.Spec.(default |> with_oracle_us instant) engine ~n
    in
    let deliver ~src ~dst msg =
      Net.Network.send net ~src ~dst msg;
      Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (us 2))
    in
    (net, deliver)
  in
  let config = Omega.Config.default ~n ~t:2 Omega.Config.Fig1 in
  List.iter
    (fun seed ->
      let rng = Dstruct.Rng.create seed in
      let pick ~leader =
        if Dstruct.Rng.bool rng then leader else Dstruct.Rng.int rng n
      in
      let gossip_net, gossip_deliver = network seed in
      let gossip = Omega.Cluster.create config gossip_net in
      let relay_net, relay_deliver = network seed in
      let relay = Omega.Lean.create config relay_net in
      let model = Array.init n (fun _ -> Array.make n 0) in
      for i = 1 to steps do
        let p = Dstruct.Rng.int rng n in
        let src = (p + 1) mod n in
        let node = Omega.Cluster.node gossip p in
        let row = Omega.Node.susp_level node in
        let k = pick ~leader:(Omega.Node.leader node) in
        row.(k) <- row.(k) + 1 + Dstruct.Rng.int rng 2;
        gossip_deliver ~src ~dst:p (Omega.Message.Alive { rn = 1; susp_level = row });
        let proc = Omega.Lean.node relay p in
        let k = pick ~leader:(Omega.Lean.leader proc) in
        let level = model.(p).(k) + 1 + Dstruct.Rng.int rng 2 in
        model.(p).(k) <- level;
        relay_deliver ~src ~dst:p
          (Omega.Message.Accuse { rn = 1; target = k; level });
        for q = 0 to n - 1 do
          let name what = Printf.sprintf "seed %Ld step %d: %s %d" seed i what q in
          let nd = Omega.Cluster.node gossip q in
          check int_t (name "gossip leader of")
            (scan_leader (Omega.Node.susp_level nd))
            (Omega.Node.leader nd);
          check int_t (name "relay leader of") (scan_leader model.(q))
            (Omega.Lean.leader (Omega.Lean.node relay q))
        done
      done)
    [ 1L; 2L; 3L ]

(* ------------------------------------------------------- closure rules *)

(* Cluster-level tests run through the shared algorithm interface
   (DESIGN.md §15) — the same surface the harness and the fault injector
   consume — so they pin the Iface contract, not Cluster internals. The
   cluster itself comes along for the tests that read a node's level row,
   which the interface does not expose. *)
let cluster ?(n = 4) ?(t = 1) ?(closure = Omega.Config.Conjunction)
    ?(oracle = instant) variant =
  let engine = Sim.Engine.create ~seed:2L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us oracle)
      engine ~n
  in
  let config = { (Omega.Config.default ~n ~t variant) with closure } in
  let cl = Omega.Cluster.create config net in
  let i = Omega.Cluster.iface cl in
  Omega.Iface.start i;
  (engine, cl, i)

let test_conjunction_rounds_advance () =
  let engine, _, c = cluster Omega.Config.Fig3 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check bool_t "receiving rounds advance" true
    (Omega.Iface.receiving_round c 0 > 10);
  check bool_t "sending rounds advance" true
    (Omega.Iface.sending_round c 0 > 100)

let test_timely_cluster_elects_min_id () =
  let engine, _, c = cluster Omega.Config.Fig3 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 3);
  check (Alcotest.option int_t) "all-timely elects min id" (Some 0)
    (Omega.Iface.agreed_leader c);
  check int_t "no suspicions" 0 (Omega.Iface.max_susp_level_seen c 0)

let test_crashed_process_level_grows () =
  (* Lemma 1 / Lemma 3: a crashed process's suspicion level keeps growing at
     every correct process (Fig2: growth is unbounded). *)
  let engine, cl, c = cluster Omega.Config.Fig2 in
  Omega.Iface.crash_at c 3 (Sim.Time.of_ms 500);
  Sim.Engine.run_until engine (Sim.Time.of_sec 3);
  let level_at p = Omega.Node.susp_level_get (Omega.Cluster.node cl p) 3 in
  check bool_t "crashed suspected" true (level_at 0 > 5);
  let mid = level_at 0 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 6);
  check bool_t "keeps growing" true (level_at 0 > mid);
  check (Alcotest.option int_t) "leader avoids the crashed process" (Some 0)
    (Omega.Iface.agreed_leader c)

let test_fig3_crashed_level_bounded () =
  (* Theorem 4: with Fig3 even a crashed process's level stops at B+1. *)
  let engine, cl, c = cluster Omega.Config.Fig3 in
  Omega.Iface.crash_at c 3 (Sim.Time.of_ms 500);
  Sim.Engine.run_until engine (Sim.Time.of_sec 3);
  let level () = Omega.Node.susp_level_get (Omega.Cluster.node cl 0) 3 in
  let level_at_3s = level () in
  Sim.Engine.run_until engine (Sim.Time.of_sec 10);
  let level_at_10s = level () in
  check int_t "bounded (stopped growing)" level_at_3s level_at_10s;
  check bool_t "small" true (level_at_10s <= 2)

let test_count_only_advances_without_timer () =
  let engine, _, c =
    cluster ~closure:Omega.Config.Count_only Omega.Config.Fig1
  in
  Sim.Engine.run_until engine (Sim.Time.of_sec 1);
  check bool_t "count-only rounds advance" true
    (Omega.Iface.receiving_round c 0 > 10)

let test_timer_only_advances_without_messages () =
  (* With absurdly slow links, timer-only still closes rounds. *)
  let slow ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ =
    Sim.Time.to_us (Sim.Time.of_sec 3600)
  in
  let engine, _, c =
    cluster ~oracle:slow ~closure:Omega.Config.Timer_only Omega.Config.Fig1
  in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check bool_t "timer-only rounds advance" true
    (Omega.Iface.receiving_round c 0 > 10)

let test_conjunction_blocks_without_messages () =
  (* The paper's closure waits for n-t ALIVEs: with dead links the round
     never closes. *)
  let slow ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ =
    Sim.Time.to_us (Sim.Time.of_sec 3600)
  in
  let engine, _, c = cluster ~oracle:slow Omega.Config.Fig1 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check int_t "round stuck at 1" 1 (Omega.Iface.receiving_round c 0)

let test_fig3_fg_inflates_timeout () =
  let g _rn = Sim.Time.of_ms 50 in
  let engine, _, c = cluster (Omega.Config.Fig3_fg { f = (fun _ -> 0); g }) in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check bool_t "timeout includes g" true
    Sim.Time.(Omega.Iface.max_timeout_armed c 0 >= Sim.Time.of_ms 50)

(* ------------------------------------------------------------- plumbing *)

let test_wire_size () =
  check int_t "alive" 21 (Omega.Message.wire_size (alive ~rn:1 [ 0; 0; 0; 0 ]));
  check int_t "suspicion" 17 (Omega.Message.wire_size (susp ~rn:1 [ 1; 2 ]))

let test_message_round () =
  check int_t "alive round" 7 (Omega.Message.round (alive ~rn:7 [ 0 ]));
  check int_t "suspicion round" 9 (Omega.Message.round (susp ~rn:9 []));
  check bool_t "is_alive" true (Omega.Message.is_alive (alive ~rn:1 [ 0 ]));
  check bool_t "not is_alive" false (Omega.Message.is_alive (susp ~rn:1 []))

let test_config_validate () =
  let bad f =
    try
      Omega.Config.validate
        (f (Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig1));
      false
    with Invalid_argument _ -> true
  in
  check bool_t "n too small" true (bad (fun c -> { c with Omega.Config.n = 1 }));
  check bool_t "alpha zero" true (bad (fun c -> { c with Omega.Config.alpha = 0 }));
  check bool_t "alpha > n" true (bad (fun c -> { c with Omega.Config.alpha = 9 }));
  check bool_t "jitter >= 1" true
    (bad (fun c -> { c with Omega.Config.send_jitter = 1.0 }));
  check bool_t "default valid" false (bad Fun.id)

let test_variant_flags () =
  check bool_t "fig1 no window" false
    (Omega.Config.has_window_condition Omega.Config.Fig1);
  check bool_t "fig2 window" true
    (Omega.Config.has_window_condition Omega.Config.Fig2);
  check bool_t "fig2 not bounded" false
    (Omega.Config.has_bounded_condition Omega.Config.Fig2);
  check bool_t "fig3 bounded" true
    (Omega.Config.has_bounded_condition Omega.Config.Fig3);
  check Alcotest.string "names" "fig3_fg"
    (Omega.Config.variant_name
       (Omega.Config.Fig3_fg { f = (fun _ -> 0); g = (fun _ -> 0) }))

let test_cluster_agreed_leader_semantics () =
  let engine, _, c = cluster Omega.Config.Fig3 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check (Alcotest.option int_t) "agreed on 0" (Some 0)
    (Omega.Iface.agreed_leader c);
  (* Crash the leader: agreement on a crashed process does not count. *)
  Net.Network.crash (Omega.Iface.net c) 0;
  check (Alcotest.option int_t) "crashed leader is no agreement" None
    (Omega.Iface.agreed_leader c);
  (* The survivors re-elect; the crashed pid 0 is skipped, not counted as
     a dissenter. *)
  Sim.Engine.run_until engine (Sim.Time.of_sec 6);
  check (Alcotest.option int_t) "crashed pid skipped" (Some 1)
    (Omega.Iface.agreed_leader c)

let test_cluster_size_mismatch_rejected () =
  let engine = Sim.Engine.create ~seed:1L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n:4
  in
  let raised =
    try
      ignore
        (Omega.Node.create (Omega.Config.default ~n:5 ~t:2 Omega.Config.Fig1)
           net ~me:0);
      false
    with Invalid_argument _ -> true
  in
  check bool_t "n mismatch rejected" true raised

let test_round_state_pruned () =
  let engine, _, c = cluster Omega.Config.Fig3 in
  Sim.Engine.run_until engine (Sim.Time.of_sec 5);
  (* Live round-indexed state = prune margin + the lag between sending and
     receiving rounds. In 5 sim-seconds ~500 rounds are sent; the live set
     must stay well below that (the paper's own per-round tables are
     unbounded; pruning keeps ours proportional to margin + lag). *)
  check bool_t "state pruned" true (Omega.Iface.round_state_cardinal c 0 < 450)

let test_round_memory_bounded_long_run () =
  (* The full-prefix collapse (DESIGN.md §16): under the default config the
     sending frontier outruns the receiving round without bound, so the
     receive buffer's LOGICAL window grows linearly with simulated time —
     but in a timely crash-free run every buffered round is received from
     all n and its bitset is reclaimed. 60 sim-s is long enough that the
     frontier gap reaches the thousands; physically retained entries must
     stay two orders of magnitude below it, flat in elapsed time. *)
  let engine = Sim.Engine.create ~seed:2L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us instant)
      engine ~n:4
  in
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let cl = Omega.Cluster.create config net in
  Omega.Iface.start (Omega.Cluster.iface cl);
  (* Peak physically-retained entries over the first and second halves of
     the run: without the collapse the peak tracks the frontier gap and
     the second half's roughly doubles the first's; with it both sit at
     the same jitter-and-suspicion-window plateau. *)
  let peak lo hi =
    let m = ref 0 in
    for s = lo to hi do
      Sim.Engine.run_until engine (Sim.Time.of_sec s);
      for p = 0 to 3 do
        let r = Omega.Node.retained_round_entries (Omega.Cluster.node cl p) in
        if r > !m then m := r
      done
    done;
    !m
  in
  let first_half = peak 1 30 in
  let second_half = peak 31 60 in
  let logical = Omega.Node.round_state_cardinal (Omega.Cluster.node cl 0) in
  check bool_t "frontier gap grew into the thousands (test has teeth)" true
    (logical > 1000);
  check bool_t "retained entries flat across run halves" true
    (second_half <= first_half + 16);
  check bool_t "retained entries two orders below the logical window" true
    (second_half * 10 < logical)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "omega"
    [
      ( "gossip",
        [
          Alcotest.test_case "pointwise max" `Quick
            test_gossip_merge_pointwise_max;
          Alcotest.test_case "never decreases" `Quick test_gossip_never_decreases;
          Alcotest.test_case "late rounds still gossip" `Quick
            test_gossip_merged_even_for_late_rounds;
        ] );
      ( "suspicions",
        [
          Alcotest.test_case "quorum increments (fig1)" `Quick
            test_quorum_increments_level_fig1;
          Alcotest.test_case "rounds do not pool" `Quick
            test_different_rounds_do_not_pool;
          Alcotest.test_case "multi-suspect message" `Quick
            test_multi_suspect_message;
        ] );
      ( "window-condition",
        [
          Alcotest.test_case "consecutive rounds pass" `Quick
            test_window_allows_consecutive_rounds_fig2;
          Alcotest.test_case "sparse quorums blocked" `Quick
            test_window_blocks_sparse_quorums_fig2;
          Alcotest.test_case "fig1 unaffected" `Quick test_fig1_has_no_window;
          Alcotest.test_case "f widens the window" `Quick
            test_fg_window_widened_by_f;
        ] );
      ( "bounded-condition",
        [
          Alcotest.test_case "non-minimal blocked" `Quick
            test_bounded_blocks_non_minimal_fig3;
          Alcotest.test_case "fig2 unaffected" `Quick
            test_fig2_ignores_bounded_condition;
          qtest prop_fig3_lattice_invariant;
        ] );
      ( "leader",
        [
          Alcotest.test_case "lexicographic" `Quick test_leader_lexicographic;
          Alcotest.test_case "cache matches a full scan" `Quick
            test_leader_cache_differential;
        ] );
      ( "closure",
        [
          Alcotest.test_case "rounds advance" `Quick
            test_conjunction_rounds_advance;
          Alcotest.test_case "timely elects min id" `Quick
            test_timely_cluster_elects_min_id;
          Alcotest.test_case "crashed level grows (fig2)" `Quick
            test_crashed_process_level_grows;
          Alcotest.test_case "crashed level bounded (fig3)" `Quick
            test_fig3_crashed_level_bounded;
          Alcotest.test_case "count-only" `Quick
            test_count_only_advances_without_timer;
          Alcotest.test_case "timer-only" `Quick
            test_timer_only_advances_without_messages;
          Alcotest.test_case "conjunction blocks" `Quick
            test_conjunction_blocks_without_messages;
          Alcotest.test_case "fig3_fg timeout" `Quick
            test_fig3_fg_inflates_timeout;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "wire size" `Quick test_wire_size;
          Alcotest.test_case "message round" `Quick test_message_round;
          Alcotest.test_case "config validate" `Quick test_config_validate;
          Alcotest.test_case "variant flags" `Quick test_variant_flags;
          Alcotest.test_case "state pruned" `Quick test_round_state_pruned;
          Alcotest.test_case "60s memory flat" `Quick
            test_round_memory_bounded_long_run;
          Alcotest.test_case "cluster agreed-leader semantics" `Quick
            test_cluster_agreed_leader_semantics;
          Alcotest.test_case "size mismatch" `Quick
            test_cluster_size_mismatch_rejected;
        ] );
    ]
