(* Tests for deterministic intra-run parallelism (DESIGN.md §18): sharded
   conservative-window execution must be observationally invisible. The
   digest (an FNV fold over the complete event stream) and the whole
   result record must be identical for intra_domains 1/2/3/4, for every
   flavour of run the driver parallelizes — plain gossip, the relay tier,
   the heartbeat baseline, a faulted plan, a routed topology, fair-lossy
   channels, E6's consensus and atomic-broadcast layers — whether the
   run goes through [Run.run] or is cut into [Run.advance] slices, each
   continued on a snapshot's restored copy, and the plan-free gossip
   stream must still be the exact pinned digest the sequential engine
   produces. The qcheck property at the bottom is the window-safety
   certificate: no scenario oracle can return a delay below
   [Scenario.lookahead_us], so nothing sent inside a window [t, t+λ) can
   arrive inside it. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let str_t = Alcotest.string
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3

let env =
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })

let relay_env =
  let config = Omega.Config.default ~n:8 ~t:3 Omega.Config.Fig3 in
  Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 6 })

let busy_plan =
  Fault.Plan.(
    empty
    |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
    |> crash 0 ~at:(ms 600)
    |> recover 0 ~at:(ms 1200)
    |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))

let base =
  Harness.Run.Spec.(default |> with_horizon (sec 2) |> with_digest true)

(* Everything deterministic in a [result]: drop the checker report (it is
   itself computed from the stream the digest already pins). *)
let fingerprint (r : Harness.Run.result) =
  ( Option.get r.Harness.Run.digest,
    r.Harness.Run.outcomes,
    ( r.Harness.Run.stabilized_at,
      r.Harness.Run.final_leader,
      r.Harness.Run.messages_sent,
      r.Harness.Run.messages_delivered,
      r.Harness.Run.max_susp_level,
      r.Harness.Run.min_sending_round ),
    ( r.Harness.Run.re_elections,
      r.Harness.Run.leadership_epochs,
      r.Harness.Run.max_round_state,
      r.Harness.Run.recoveries,
      List.length r.Harness.Run.samples ) )

let run ~spec ~env ~intra ~seed =
  Harness.Run.run
    ~spec:(Harness.Run.Spec.with_intra_domains intra spec)
    ~env ~seed ()

(* Cut points of the sliced leg, uneven on purpose: two before the first
   window (nothing is scheduled at time zero), one on [busy_plan]'s
   partition instant, and the horizon itself — after which [finish] only
   folds the observers. Every cut snapshots the run, and the slices after
   it run on the restored copy. *)
let cuts =
  [
    Sim.Time.zero;
    Sim.Time.of_us 1;
    ms 97;
    ms 500;
    Sim.Time.of_us 1_203_457;
    sec 2;
  ]

let sliced ~name ~spec ~env ~intra ~seed =
  let live =
    Harness.Run.start
      ~spec:(Harness.Run.Spec.with_intra_domains intra spec)
      ~env ~seed ()
  in
  let live =
    List.fold_left
      (fun live until ->
        Harness.Run.advance live ~until;
        let live = Harness.Run.restore (Harness.Run.snapshot live) in
        check int_t
          (Printf.sprintf "%s: intra=%d clock at the cut" name intra)
          (Sim.Time.to_us until)
          (Sim.Time.to_us (Harness.Run.now live));
        live)
      live cuts
  in
  Harness.Run.finish live

(* The workhorse: the full fingerprint — digest first — must coincide for
   intra 1/2/3/4, and intra 1 must equal the plain spec (the sequential
   path, bit for bit). K = 3 makes uneven shards: at n = 4 the blocks
   are {0, 1}, {2} and {3}, so one destination drains two shard sources
   plus the control replica. The sliced leg drives the same runs through
   [start], [advance], [snapshot] and [restore] at every cut, and
   [finish]. *)
let assert_invariant ?(seed = 7L) ~name spec env =
  let seq = fingerprint (Harness.Run.run ~spec ~env ~seed ()) in
  List.iter
    (fun intra ->
      let par = fingerprint (run ~spec ~env ~intra ~seed) in
      check bool_t
        (Printf.sprintf "%s: intra=%d matches sequential" name intra)
        true (par = seq))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun intra ->
      let par = fingerprint (sliced ~name ~spec ~env ~intra ~seed) in
      check bool_t
        (Printf.sprintf "%s: intra=%d sliced and restored matches sequential"
           name intra)
        true (par = seq))
    [ 1; 2; 3 ]

let test_gossip () = assert_invariant ~name:"gossip" base env

let test_gossip_pin () =
  (* Stronger than self-consistency: the parallel run must reproduce the
     digest pinned by test_fault/test_obs for the sequential engine. *)
  List.iter
    (fun intra ->
      check str_t
        (Printf.sprintf "intra=%d reproduces the plan-free pin" intra)
        "d04e0b6bb1a89956"
        (Obs.Digest.to_hex
           (Option.get (run ~spec:base ~env ~intra ~seed:7L).Harness.Run.digest)))
    [ 2; 3; 4 ]

let test_relay () =
  assert_invariant ~name:"relay"
    Harness.Run.Spec.(base |> with_algo `Relay)
    relay_env

(* The per-link heartbeat baseline starts each node under its own rank
   like the Ω producers, so its shards draw the sequential keys; the crash
   exercises its halted-node paths across a shard boundary. *)
let test_heartbeat () =
  assert_invariant ~name:"heartbeat"
    Harness.Run.Spec.(
      base |> with_check false |> with_algo `Heartbeat
      |> with_crashes [ (0, ms 400) ])
    relay_env

let test_faulted () =
  assert_invariant ~name:"faulted"
    Harness.Run.Spec.(base |> with_plan busy_plan)
    env

let test_crashes () =
  assert_invariant ~name:"crashes"
    Harness.Run.Spec.(base |> with_crashes [ (0, ms 400) ])
    env

let test_routed () =
  assert_invariant ~name:"routed"
    Harness.Run.Spec.(
      base
      |> with_topology Net.Topology.Ring
      |> with_link_channel
           (Net.Topology.Eventually_timely
              { gst = ms 500; bound = Sim.Time.of_sec 2 }))
    env

let test_fair_lossy () =
  (* Complete graph, every edge fair-lossy: the loss coins come from
     per-executor streams, so the sharded run draws exactly the sequential
     run's coins. *)
  assert_invariant ~name:"fair-lossy"
    Harness.Run.Spec.(base |> with_link_channel (Net.Topology.Fair_lossy 0.1))
    env

(* E6's two stacks in miniature: Figure 3 under an intermittent star
   (n = 8, t = 3, D = 4) with a consensus or broadcast layer on a second
   network. p0 crashes before the proposals (consensus) or amid the
   submissions (broadcast). Layer nodes run on their process's shard, and
   broadcast instances appear at run time inside handlers, so their
   streams must not come from a shared root. *)
let layer_env =
  let config = Omega.Config.default ~n:8 ~t:3 Omega.Config.Fig3 in
  Scenarios.Env.make config
    (Scenarios.Scenario.Intermittent_star { center = 6; d = 4 })

let consensus_spec =
  Harness.Run.Spec.(
    base |> with_check false |> with_horizon (sec 3)
    |> with_crashes [ (0, ms 200) ]
    |> with_layer
         (Consensus (List.init 7 (fun i -> (i + 1, ms 500, 101 + i)))))

let broadcast_spec =
  Harness.Run.Spec.(
    base |> with_check false |> with_horizon (sec 3)
    |> with_crashes [ (0, sec 1) ]
    |> with_layer
         (Broadcast
            (List.init 10 (fun c -> (1 + (c mod 3), ms (100 * c), 1000 + c)))))

let test_consensus () =
  assert_invariant ~seed:11L ~name:"consensus" consensus_spec layer_env

let test_broadcast () =
  assert_invariant ~seed:11L ~name:"broadcast" broadcast_spec layer_env

(* Each layer's digest and readout, pinned for the sequential engine and
   reproduced by every shard count: p1..p7 decide 105 by 621.83 ms on p5's
   single ballot (E6's 121830 us latency), and every correct process
   delivers the ten commands in one order — crashed p0 had delivered eight
   of them. *)
let readout (r : Harness.Run.result) =
  String.concat " "
    (Array.to_list
       (Array.map
          (function
            | Harness.Run.Decision { value; at; ballots } ->
                Printf.sprintf "%s@%s/%d"
                  (Option.fold ~none:"-" ~some:string_of_int value)
                  (Option.fold ~none:"-"
                     ~some:(fun t -> string_of_int (Sim.Time.to_us t))
                     at)
                  ballots
            | Harness.Run.Delivered cmds ->
                String.concat "," (List.map string_of_int cmds))
          (Option.get r.Harness.Run.outcomes)))

let test_layer_pins () =
  List.iter
    (fun (name, spec, digest, outcomes) ->
      List.iter
        (fun intra ->
          let r = run ~spec ~env:layer_env ~intra ~seed:11L in
          check str_t
            (Printf.sprintf "%s: intra=%d digest pin" name intra)
            digest
            (Obs.Digest.to_hex (Option.get r.Harness.Run.digest));
          check str_t
            (Printf.sprintf "%s: intra=%d readout pin" name intra)
            outcomes (readout r))
        [ 1; 2; 3; 4 ])
    [
      ( "consensus",
        consensus_spec,
        "641786f202e8d5c8",
        "-@-/0 105@621830/0 105@613384/0 105@617285/0 105@618336/0 \
         105@602963/1 105@618589/0 105@618510/0" );
      ( "broadcast",
        broadcast_spec,
        "ff51a151117f42e3",
        "1000,1001,1002,1004,1006,1003,1005,1007 "
        ^ String.concat " "
            (List.init 7 (fun _ ->
                 "1000,1001,1002,1004,1006,1003,1005,1007,1008,1009")) );
    ]

let test_seed_spread () =
  (* Different seeds must still differ under parallel execution (the
     shards really run the seed, not some collapsed schedule). *)
  let d seed = Option.get (run ~spec:base ~env ~intra:2 ~seed).Harness.Run.digest in
  check int_t "three seeds, three digests" 3
    (List.length (List.sort_uniq Int64.compare [ d 3L; d 7L; d 11L ]))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let contains msg s =
  let n = String.length s in
  let rec at i =
    i + n <= String.length msg && (String.sub msg i n = s || at (i + 1))
  in
  at 0

(* A K = 2 snapshot at 300 ms neither perturbs the run it copies nor
   loses anything: the original and the restored copy both finish on the
   sequential fingerprint. *)
let test_sharded_snapshot () =
  let spec = Harness.Run.Spec.with_intra_domains 2 base in
  let live = Harness.Run.start ~spec ~env ~seed:7L () in
  Harness.Run.advance live ~until:(ms 300);
  let restored = Harness.Run.restore (Harness.Run.snapshot live) in
  let seq = fingerprint (Harness.Run.run ~spec:base ~env ~seed:7L ()) in
  check bool_t "the snapshotted run still matches sequential" true
    (fingerprint (Harness.Run.finish live) = seq);
  check bool_t "the restored copy matches sequential" true
    (fingerprint (Harness.Run.finish restored) = seq)

let test_intra_domains_zero () =
  check bool_t "with_intra_domains rejects 0" true
    (raises_invalid (fun () -> Harness.Run.Spec.with_intra_domains 0 base))

(* A zero delay floor leaves no lookahead: a sharded [start] refuses it
   before any event runs, while the sequential run needs no lookahead and
   reaches the horizon. *)
let test_zero_delay_floor () =
  let env =
    Scenarios.Env.make
      ~params:
        { (Scenarios.Env.params env) with
          Scenarios.Scenario.min_delay = Sim.Time.zero }
      config
      (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  check bool_t "K = 2 start raises the delay-floor error" true
    (match
       Harness.Run.start
         ~spec:(Harness.Run.Spec.with_intra_domains 2 base)
         ~env ~seed:7L ()
     with
    | _ -> false
    | exception Invalid_argument msg -> contains msg "delay floor");
  let live = Harness.Run.start ~spec:base ~env ~seed:7L () in
  let r = Harness.Run.finish live in
  check bool_t "K = 1 reaches the horizon" true
    (Harness.Run.now live = Harness.Run.horizon live);
  check bool_t "K = 1 delivered messages" true
    (r.Harness.Run.messages_delivered > 0)

(* An undercut lookahead would hand a barrier commit an event that sorts
   before one the owning shard already ran. The commit must refuse it
   loudly, naming the lookahead, rather than queue it for a later fire. *)
let test_undercut_commit_raises () =
  let e = Sim.Engine.create ~seed:1L () in
  let stamp () =
    let key = Sim.Engine.stamp_key e (ms 5) in
    (key, Sim.Engine.stamp_cidx e key)
  in
  let early_key, early_cidx = stamp () in
  let key, cidx = stamp () in
  let later_key, later_cidx = stamp () in
  let ran = ref [] in
  let note i = ran := i :: !ran in
  Sim.Engine.enqueue_committed e ~key ~cidx note 1;
  ignore (Sim.Engine.run_until_idle e);
  let refused label key cidx =
    match Sim.Engine.enqueue_committed e ~key ~cidx note 0 with
    | () -> Alcotest.failf "%s: commit accepted" label
    | exception Invalid_argument msg ->
        check bool_t (label ^ ": message names the lookahead") true
          (contains msg "lookahead")
  in
  refused "same key, lower creation index" early_key early_cidx;
  refused "the executed event itself" key cidx;
  refused "an earlier instant" (key - (1 lsl Sim.Engine.rank_bits)) cidx;
  check int_t "refusals leave nothing pending" 0 (Sim.Engine.pending e);
  (* Sorting after the executed event is fine, even at the same key. *)
  Sim.Engine.enqueue_committed e ~key:later_key ~cidx:later_cidx note 2;
  ignore (Sim.Engine.run_until_idle e);
  check (Alcotest.list int_t) "accepted commits ran in order" [ 1; 2 ]
    (List.rev !ran)

(* ------------------------------------------------ barrier *)

(* The window barrier through [Net.Network]'s sharding API alone: n = 4
   split {0, 1} | {2, 3} over two sharded replicas, next to one
   sequential network. The oracle's delay is constant, so a broadcast's
   cross-shard fan-out shares one key and only the drain's creation
   order can order those ties. *)
let bdelay_us = 1_000
let bshard_of = [| 0; 0; 1; 1 |]
let rb = Sim.Engine.rank_bits

let bnet () =
  let e = Sim.Engine.create ~seed:1L () in
  let spec =
    Net.Network.Spec.(
      default
      |> with_oracle_us (fun ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ (_ : int) ->
             bdelay_us))
  in
  (e, Net.Network.of_spec spec e ~n:4)

let sharded_pair () =
  let pair = Array.init 2 (fun _ -> bnet ()) in
  let nets = Array.map snd pair in
  Array.iteri
    (fun s nt ->
      Net.Network.set_sharding nt ~my_shard:s ~shard_of:bshard_of ~shards:2)
    nets;
  Net.Network.link_siblings nets;
  pair

(* -1 = empty, as in [Engine.next_pending_key]. *)
let min_key a b = if a < 0 || (b >= 0 && b < a) then b else a

(* Each process floods: every delivery of [m < 3] is re-broadcast as
   [m + 1]. The log entry is the delivery's canonical identity. *)
let flood (e, nt) log =
  for p = 0 to 3 do
    Net.Network.set_handler nt p (fun ~src m ->
        log :=
          (Sim.Engine.executing_key e, Sim.Engine.executing_cidx e, src, p, m)
          :: !log;
        if m < 3 then Net.Network.broadcast nt ~src:p (m + 1))
  done

let test_barrier_log () =
  let seq_log = ref [] and par_log = ref [] in
  let ((es, ns) as seq) = bnet () in
  flood seq seq_log;
  for p = 0 to 3 do
    Sim.Engine.set_rank es p;
    Net.Network.broadcast ns ~src:p 0
  done;
  ignore (Sim.Engine.run_until_idle es);
  let pair = sharded_pair () in
  Array.iter (fun r -> flood r par_log) pair;
  for p = 0 to 3 do
    let e, nt = pair.(bshard_of.(p)) in
    Sim.Engine.set_rank e p;
    Net.Network.broadcast nt ~src:p 0
  done;
  (* The driver's protocol on one domain: seal, bound the window by every
     pending and sealed key, then per shard drain and run. *)
  let rec windows count =
    Array.iter (fun (_, nt) -> Net.Network.seal nt) pair;
    let sk =
      Array.fold_left
        (fun acc (e, nt) ->
          min_key acc
            (min_key
               (Sim.Engine.next_pending_key e)
               (Net.Network.sealed_min_key nt)))
        (-1) pair
    in
    if sk < 0 then count
    else begin
      let lim = ((sk asr rb) + bdelay_us) lsl rb in
      Array.iter
        (fun (e, nt) ->
          Net.Network.drain_sealed nt;
          Sim.Engine.run_window_key e ~limit_key:lim)
        pair;
      windows (count + 1)
    end
  in
  let count = windows 0 in
  check bool_t "several windows ran" true (count >= 4);
  let seq = List.rev !seq_log in
  check int_t "the flood delivers 4*3 + 12*3 + 36*3 + 108*3 messages" 480
    (List.length seq);
  check bool_t "sealed-then-drained arrivals give the sequential log" true
    (List.sort compare !par_log = seq)

let test_sealed_min () =
  let pair = sharded_pair () in
  let e0, n0 = pair.(0) and e1, n1 = pair.(1) in
  let send p dst =
    Sim.Engine.set_rank e0 p;
    Net.Network.send n0 ~src:p ~dst 0
  in
  let key p = (bdelay_us lsl rb) lor (p + 1) in
  send 1 2;
  send 1 3;
  check int_t "an open outbox is not sealed" (-1)
    (Net.Network.sealed_min_key n1);
  Net.Network.seal n0;
  check int_t "sealed minimum after the swap" (key 1)
    (Net.Network.sealed_min_key n1);
  send 0 3;
  send 1 2;
  Net.Network.seal n0;
  check int_t "a second seal appends and lowers the minimum" (key 0)
    (Net.Network.sealed_min_key n1);
  check int_t "nothing sealed for the sender's own shard" (-1)
    (Net.Network.sealed_min_key n0);
  Net.Network.drain_sealed n1;
  check int_t "drain resets the minimum" (-1) (Net.Network.sealed_min_key n1);
  check int_t "every sealed arrival is pending" 4 (Sim.Engine.pending e1);
  check int_t "the earliest is the sealed minimum" (key 0)
    (Sim.Engine.next_pending_key e1);
  ignore (Sim.Engine.run_until_idle e1);
  check int_t "all delivered" 4 (Net.Network.delivered_count n1)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* Stamping, appending, sealing and draining allocate nothing once the
   outbox columns (two per pair: sealing swaps them), the flight pool
   and the engine's slot store have grown. *)
let test_barrier_alloc () =
  let pair = sharded_pair () in
  let e0, n0 = pair.(0) and e1, n1 = pair.(1) in
  let m = 10_000 in
  let cycle at =
    Sim.Engine.fast_forward e0 (ms at);
    for i = 1 to m do
      let p = i land 1 in
      Sim.Engine.set_rank e0 p;
      Net.Network.send n0 ~src:p ~dst:(2 + p) i
    done;
    Net.Network.seal n0;
    Net.Network.drain_sealed n1
  in
  cycle 0;
  ignore (Sim.Engine.run_until_idle e1);
  cycle 10;
  ignore (Sim.Engine.run_until_idle e1);
  let words = minor_words_of (fun () -> cycle 20) in
  check int_t "every measured send is pending" m (Sim.Engine.pending e1);
  check bool_t
    (Printf.sprintf "%d cross-shard sends, seal and drain allocated %d minor \
                     words (budget: under 1 per message)"
       m words)
    true (words < m)

(* ------------------------------------------------ lookahead safety *)

(* Window certificate: over every regime family and adversarial knob the
   scenarios expose, no oracle delay may undercut [lookahead_us] — a
   cross-shard message sent at s arrives at or after s + λ, hence at or
   after the end of any window that could still be executing s. *)
let lookahead_safety =
  QCheck.Test.make ~count:200 ~name:"oracle delays never undercut lookahead"
    QCheck.(
      quad (int_range 4 9) (int_range 0 3) small_nat (int_range 0 5000))
    (fun (n, t_minus, rn_seed, now_ms) ->
      let n = max 4 n in
      let t = max 1 (min ((n - 1) / 2) (1 + t_minus)) in
      let center = n - 2 in
      let regimes =
        [
          Scenarios.Scenario.Full_timely;
          Scenarios.Scenario.Chaos;
          Scenarios.Scenario.Rotating_star { center };
          Scenarios.Scenario.Intermittent_star { center; d = 4 };
          Scenarios.Scenario.T_source { center };
          Scenarios.Scenario.Moving_source { center };
        ]
      in
      List.for_all
        (fun regime ->
          let params =
            Scenarios.Scenario.default_params ~n ~t ~beta:(ms 10)
          in
          let scenario =
            Scenarios.Scenario.create params regime
              ~seed:(Int64.of_int (rn_seed + 1))
          in
          let lo = Scenarios.Scenario.lookahead_us scenario in
          let now = ms now_ms in
          let ok ~rn ~at ~src ~dst =
            Scenarios.Scenario.oracle_us scenario
              ~round_of:(fun (m : int) -> m)
              ~now ~seq:rn_seed ~at ~src ~dst rn
            >= lo
          in
          lo > 0
          && List.for_all
               (fun rn ->
                 List.for_all
                   (fun src ->
                     List.for_all
                       (fun dst ->
                         ok ~rn ~at:src ~src ~dst
                         && ok ~rn ~at:dst ~src ~dst)
                       [ 0; center; n - 1 ])
                   [ 0; 1; center ])
               [ -1; 1; rn_seed + 1 ])
        regimes)

let () =
  Alcotest.run "intra"
    [
      ( "invariance",
        [
          Alcotest.test_case "gossip" `Quick test_gossip;
          Alcotest.test_case "gossip matches the pin" `Quick test_gossip_pin;
          Alcotest.test_case "relay" `Quick test_relay;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat;
          Alcotest.test_case "faulted plan" `Quick test_faulted;
          Alcotest.test_case "scheduled crashes" `Quick test_crashes;
          Alcotest.test_case "routed topology" `Quick test_routed;
          Alcotest.test_case "fair-lossy channels" `Quick test_fair_lossy;
          Alcotest.test_case "consensus layer" `Quick test_consensus;
          Alcotest.test_case "broadcast layer" `Quick test_broadcast;
          Alcotest.test_case "layers match their pins" `Quick test_layer_pins;
          Alcotest.test_case "seeds discriminate" `Quick test_seed_spread;
        ] );
      ( "guards",
        [
          Alcotest.test_case "sharded snapshot unperturbed" `Quick
            test_sharded_snapshot;
          Alcotest.test_case "with_intra_domains rejects 0" `Quick
            test_intra_domains_zero;
          Alcotest.test_case "zero delay floor" `Quick test_zero_delay_floor;
          Alcotest.test_case "undercut commit raises (wheel)" `Quick
            test_undercut_commit_raises;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "drain replays the sequential log"
            `Quick test_barrier_log;
          Alcotest.test_case "sealed minimum" `Quick test_sealed_min;
          Alcotest.test_case "seal and drain allocate nothing" `Quick
            test_barrier_alloc;
        ] );
      ( "lookahead",
        [ QCheck_alcotest.to_alcotest lookahead_safety ] );
    ]
