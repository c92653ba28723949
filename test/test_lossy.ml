(* Tests for the fair-lossy link model and the footnote-2 reliability
   construction (ack + piggyback retransmission), including consensus
   running over fair-lossy links through the transport-generic node. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let ms = Sim.Time.of_ms

let flat d ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = d

(* Every directed edge a fair-lossy channel losing [loss] of the hops. *)
let lossy loss ~src:_ ~dst:_ = Net.Topology.Fair_lossy loss

(* ------------------------------------------------------------- Lossy *)

let test_lossy_validation () =
  (* [Rng.chance] treats p >= 1 as "always" and p < 0 or NaN as "never",
     so an unchecked class would silently cut every edge or lose nothing. *)
  let build loss =
    Net.Network.of_spec
      Net.Spec.(
        default |> with_oracle_us (flat 1) |> with_channels (lossy loss))
      (Sim.Engine.create ~seed:1L ())
      ~n:2
  in
  let bad loss = try ignore (build loss); false with Invalid_argument _ -> true in
  check bool_t "loss = 1 rejected" true (bad 1.0);
  check bool_t "loss > 1 rejected" true (bad 1.5);
  check bool_t "negative loss rejected" true (bad (-0.1));
  check bool_t "NaN loss rejected" true (bad Float.nan);
  check bool_t "loss = 0 accepted" false (bad 0.0);
  check bool_t "loss = 0.9 accepted" false (bad 0.9)

(* --------------------------------------------------------- Retransmit *)

let make_reliable ?(n = 3) ?(loss = 0.5) ?(seed = 3L) () =
  let engine = Sim.Engine.create ~seed () in
  let layer =
    Net.Retransmit.create ~channels:(lossy loss) engine ~n ~oracle:(flat 500)
      ~resend_every:(ms 5)
  in
  Net.Retransmit.start layer;
  (engine, layer)

let test_retransmit_exactly_once_in_order () =
  let engine, layer = make_reliable () in
  let received = ref [] in
  Net.Retransmit.set_handler layer 1 (fun ~src m ->
      if src = 0 then received := m :: !received);
  for i = 1 to 200 do
    Net.Retransmit.send layer ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 10);
  check (Alcotest.list int_t) "every payload exactly once, in order"
    (List.init 200 (fun i -> i + 1))
    (List.rev !received);
  check int_t "queues drained" 0 (Net.Retransmit.backlog layer)

let test_retransmit_bidirectional () =
  let engine, layer = make_reliable () in
  let got = Array.make 3 0 in
  for p = 0 to 2 do
    Net.Retransmit.set_handler layer p (fun ~src:_ _ -> got.(p) <- got.(p) + 1)
  done;
  for i = 1 to 50 do
    Net.Retransmit.send layer ~src:0 ~dst:1 i;
    Net.Retransmit.send layer ~src:1 ~dst:0 (100 + i);
    Net.Retransmit.send layer ~src:2 ~dst:0 (200 + i)
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 10);
  check int_t "p0 received both flows" 100 got.(0);
  check int_t "p1 received" 50 got.(1)

let test_retransmit_heavy_loss () =
  let engine, layer = make_reliable ~loss:0.9 () in
  let received = ref 0 in
  Net.Retransmit.set_handler layer 2 (fun ~src:_ _ -> incr received);
  for i = 1 to 50 do
    Net.Retransmit.send layer ~src:0 ~dst:2 i
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 30);
  check int_t "all delivered despite 90% loss" 50 !received;
  (* The piggyback batches the whole queue per envelope, so one surviving
     envelope can deliver everything: overhead stays modest even at 90%
     loss, but some extra wire traffic (acks + resends) must exist. *)
  check bool_t "needed retransmissions" true
    (Net.Retransmit.wire_sends layer > 55)

let test_retransmit_crash_halts () =
  let engine, layer = make_reliable () in
  let received = ref 0 in
  Net.Retransmit.set_handler layer 1 (fun ~src:_ _ -> incr received);
  Net.Retransmit.crash layer 0;
  Net.Retransmit.send layer ~src:0 ~dst:1 7;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2);
  check int_t "crashed process sends nothing" 0 !received

let test_retransmit_no_loss_low_overhead () =
  (* Without loss, the layer should not retransmit much: acked payloads
     leave the queues promptly. *)
  let engine = Sim.Engine.create ~seed:3L () in
  let layer =
    Net.Retransmit.create engine ~n:2 ~oracle:(flat 100) ~resend_every:(ms 5)
  in
  Net.Retransmit.start layer;
  Net.Retransmit.set_handler layer 1 (fun ~src:_ _ -> ());
  for i = 1 to 100 do
    Net.Retransmit.send layer ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 5);
  check int_t "delivered" 100 (Net.Retransmit.delivered layer);
  (* 100 data sends + acks + a few retransmissions while acks are in
     flight. *)
  check bool_t "bounded overhead" true (Net.Retransmit.wire_sends layer < 450)

let test_retransmit_partition_bounds_queue () =
  (* Regression for the unbounded-backlog bug: during a 10-sim-s partition
     the sender keeps producing payloads, and before the [max_pending]
     bound its per-link queue (and the piggyback envelope size) grew
     without limit. Now the newest payload is refused once the queue is
     full — dropping the oldest instead would wedge the receiver's
     in-order cursor forever — and traffic resumes after the heal. *)
  let engine = Sim.Engine.create ~seed:3L () in
  let layer =
    Net.Retransmit.create engine ~max_pending:64 ~n:2 ~oracle:(flat 100)
      ~resend_every:(ms 5)
  in
  Net.Retransmit.start layer;
  let received = ref 0 and last = ref 0 and in_order = ref true in
  Net.Retransmit.set_handler layer 1 (fun ~src:_ m ->
      incr received;
      if m <= !last then in_order := false;
      last := m);
  Net.Retransmit.set_partition layer (Some [| 0; 1 |]);
  ignore
    (Sim.Engine.schedule_at engine (Sim.Time.of_sec 10) (fun () ->
         Net.Retransmit.set_partition layer None));
  (* One payload per 10 ms for 20 sim-s: 1000 into the partition, 1000
     after the heal. *)
  let rec feed i () =
    Net.Retransmit.send layer ~src:0 ~dst:1 i;
    if i < 2000 then ignore (Sim.Engine.schedule_after engine (ms 10) (feed (i + 1)))
  in
  feed 1 ();
  Sim.Engine.run_until engine (Sim.Time.of_sec 30);
  let shed = Net.Retransmit.shed layer in
  check bool_t "the bound shed most of the partition's payloads" true
    (shed > 800);
  check int_t "every accepted payload delivered after the heal"
    (2000 - shed) !received;
  check bool_t "delivered in submission order" true !in_order;
  check int_t "queues drained" 0 (Net.Retransmit.backlog layer)

(* ---------------------------- omega over fair-lossy links (footnote 2) *)

let test_omega_over_lossy_links () =
  (* The paper's base model assumes reliable links and notes that fair-lossy
     links + acknowledgment/piggybacking suffice. Run Figure 3 over exactly
     that stack: 40% loss, retransmission layer, otherwise timely delays.
     With every link recovered-timely, the minimum id must be elected, and a
     crashed process must be suspected. *)
  let n = 4 and t = 1 in
  let engine = Sim.Engine.create ~seed:31L () in
  let layer =
    Net.Retransmit.create ~channels:(lossy 0.4) engine ~n ~oracle:(flat 400)
      ~resend_every:(ms 4)
  in
  Net.Retransmit.start layer;
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let crashed = Array.make n false in
  let nodes =
    Array.init n (fun me ->
        let transport =
          {
            Omega.Node.engine;
            n;
            send =
              (fun ~dst m ->
                if not crashed.(me) then
                  Net.Retransmit.send layer ~src:me ~dst m);
            halted = (fun () -> crashed.(me));
          }
        in
        Omega.Node.create_with_transport config transport ~me)
  in
  Array.iteri
    (fun me node ->
      Net.Retransmit.set_handler layer me (fun ~src m ->
          Omega.Node.handle node ~src m))
    nodes;
  Array.iter Omega.Node.start nodes;
  ignore
    (Sim.Engine.schedule_at engine (Sim.Time.of_sec 2) (fun () ->
         crashed.(3) <- true;
         Net.Retransmit.crash layer 3));
  Sim.Engine.run_until engine (Sim.Time.of_sec 8);
  let leaders =
    List.map (fun p -> Omega.Node.leader nodes.(p)) [ 0; 1; 2 ]
  in
  check (Alcotest.list int_t) "all correct elect min id over lossy links"
    [ 0; 0; 0 ] leaders;
  check bool_t "crashed process suspected" true
    ((Omega.Node.susp_level nodes.(0)).(3) >= 1)

(* -------------------------------- consensus over fair-lossy links *)

let test_consensus_over_lossy_links () =
  let n = 5 and t = 2 in
  let engine = Sim.Engine.create ~seed:21L () in
  let layer =
    Net.Retransmit.create ~channels:(lossy 0.4) engine ~n ~oracle:(flat 800)
      ~resend_every:(ms 10)
  in
  Net.Retransmit.start layer;
  let nodes =
    Array.init n (fun me ->
        let transport =
          {
            Consensus.Node.engine;
            n;
            send = (fun ~dst m -> Net.Retransmit.send layer ~src:me ~dst m);
            halted = (fun () -> Net.Retransmit.is_crashed layer me);
          }
        in
        Consensus.Node.create transport ~me ~rng:(Sim.Engine.rng engine)
          ~leader_oracle:(fun () -> 1)
          ~retry_every:(ms 50) ~crash_bound:t)
  in
  Array.iteri
    (fun me node ->
      Net.Retransmit.set_handler layer me (fun ~src m ->
          Consensus.Node.handle node ~src m))
    nodes;
  Array.iter Consensus.Node.start nodes;
  Array.iteri (fun i node -> Consensus.Node.propose node (70 + i)) nodes;
  Sim.Engine.run_until engine (Sim.Time.of_sec 20);
  let decisions =
    Array.to_list (Array.map Consensus.Node.decision nodes)
    |> List.filter_map Fun.id
  in
  check int_t "everyone decided" n (List.length decisions);
  check bool_t "agreement" true
    (match decisions with [] -> false | v :: r -> List.for_all (( = ) v) r)

let () =
  Alcotest.run "lossy"
    [
      ( "lossy-links",
        [
          Alcotest.test_case "validation" `Quick test_lossy_validation;
        ] );
      ( "retransmit",
        [
          Alcotest.test_case "exactly once, in order" `Quick
            test_retransmit_exactly_once_in_order;
          Alcotest.test_case "bidirectional" `Quick test_retransmit_bidirectional;
          Alcotest.test_case "heavy loss" `Quick test_retransmit_heavy_loss;
          Alcotest.test_case "crash halts" `Quick test_retransmit_crash_halts;
          Alcotest.test_case "low overhead without loss" `Quick
            test_retransmit_no_loss_low_overhead;
          Alcotest.test_case "partition bounds the pending queue" `Quick
            test_retransmit_partition_bounds_queue;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "omega over fair-lossy links" `Quick
            test_omega_over_lossy_links;
          Alcotest.test_case "consensus over fair-lossy links" `Quick
            test_consensus_over_lossy_links;
        ] );
    ]
