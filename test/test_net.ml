(* Tests for the simulated network: delivery, delay oracle, crash and drop
   semantics, tracing, counters. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let us = Sim.Time.of_us

type msg = Ping of int

let constant_delay d ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = d

let make ?(n = 3) ?(oracle = constant_delay 10) () =
  let engine = Sim.Engine.create ~seed:1L () in
  let net =
    Net.Network.of_spec
      Net.Spec.(default |> with_oracle_us oracle)
      engine ~n
  in
  (engine, net)

let inbox net p =
  let log = ref [] in
  Net.Network.set_handler net p (fun ~src msg -> log := (src, msg) :: !log);
  log

let test_delivery_with_delay () =
  let engine, net = make () in
  let inbox1 = inbox net 1 in
  Net.Network.send net ~src:0 ~dst:1 (Ping 7);
  Sim.Engine.run_until engine (us 9);
  check int_t "not yet delivered" 0 (List.length !inbox1);
  Sim.Engine.run_until engine (us 10);
  check (Alcotest.list (Alcotest.pair int_t bool_t)) "delivered"
    [ (0, true) ]
    (List.map (fun (src, Ping v) -> (src, v = 7)) !inbox1)

let test_broadcast_excludes_self () =
  let engine, net = make ~n:4 () in
  let inboxes = List.init 4 (fun p -> inbox net p) in
  Net.Network.broadcast net ~src:2 (Ping 1);
  Sim.Engine.run_until engine (us 100);
  let counts = List.map (fun box -> List.length !box) inboxes in
  check (Alcotest.list int_t) "everyone but the sender" [ 1; 1; 0; 1 ] counts

let test_non_fifo_delays () =
  (* A later message with a shorter delay overtakes: links are not FIFO. *)
  let oracle ~now:_ ~seq ~at:_ ~src:_ ~dst:_ _ = if seq = 0 then 50 else 5 in
  let engine, net = make ~oracle () in
  let box = inbox net 1 in
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Net.Network.send net ~src:0 ~dst:1 (Ping 2);
  Sim.Engine.run_until engine (us 100);
  check (Alcotest.list int_t) "overtaking" [ 2; 1 ]
    (List.map (fun (_, Ping v) -> v) (List.rev !box))

let test_crash_stops_sending_and_receiving () =
  let engine, net = make () in
  let box1 = inbox net 1 in
  let box2 = inbox net 2 in
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Net.Network.crash net 1;
  (* In-flight message to the crashed process is consumed silently. *)
  Net.Network.send net ~src:1 ~dst:2 (Ping 2);
  (* crashed: no-op *)
  Sim.Engine.run_until engine (us 100);
  check int_t "crashed receives nothing" 0 (List.length !box1);
  check int_t "crashed sends nothing" 0 (List.length !box2);
  check bool_t "is_crashed" true (Net.Network.is_crashed net 1);
  check (Alcotest.list int_t) "correct excludes crashed" [ 0; 2 ]
    (Net.Network.correct net)

let test_drop () =
  (* A negative delay is the oracle's way to drop. *)
  let oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst (_ : msg) =
    if dst = 1 then -1 else 1
  in
  let engine, net = make ~oracle () in
  let box1 = inbox net 1 in
  let box2 = inbox net 2 in
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Net.Network.send net ~src:0 ~dst:2 (Ping 2);
  Sim.Engine.run_until engine (us 10);
  check int_t "dropped" 0 (List.length !box1);
  check int_t "other delivered" 1 (List.length !box2);
  check int_t "dropped counter" 1 (Net.Network.dropped_count net);
  check int_t "sent counter" 2 (Net.Network.sent_count net);
  check int_t "delivered counter" 1 (Net.Network.delivered_count net)

let test_counters () =
  let engine, net = make () in
  ignore (inbox net 1);
  for _ = 1 to 5 do
    Net.Network.send net ~src:0 ~dst:1 (Ping 0)
  done;
  Sim.Engine.run_until engine (us 100);
  check int_t "sent" 5 (Net.Network.sent_count net);
  check int_t "delivered" 5 (Net.Network.delivered_count net);
  check int_t "dropped" 0 (Net.Network.dropped_count net)

let test_tracer_events () =
  (* The network emits typed Obs events through the engine's sink. *)
  let engine, net = make () in
  ignore (inbox net 1);
  let sent = ref 0 and delivered = ref 0 in
  Sim.Engine.set_sink engine
    (Obs.Sink.make ~mask:Obs.Event.c_net (function
      | Obs.Event.Send _ -> incr sent
      | Obs.Event.Deliver { now; sent_at; _ } ->
          incr delivered;
          check int_t "delay recorded" 10 (now - sent_at)
      | _ -> ()));
  Net.Network.send net ~src:0 ~dst:1 (Ping 1);
  Sim.Engine.run_until engine (us 100);
  check int_t "sent traced" 1 !sent;
  check int_t "delivered traced" 1 !delivered

let test_self_send () =
  let engine, net = make () in
  let box0 = inbox net 0 in
  Net.Network.send net ~src:0 ~dst:0 (Ping 9);
  Sim.Engine.run_until engine (us 100);
  check (Alcotest.list int_t) "self delivery" [ 0 ]
    (List.map fst !box0)

let test_bad_args () =
  let _, net = make () in
  Alcotest.check_raises "send bad pid"
    (Invalid_argument "Network.send: pid 9 out of range") (fun () ->
      Net.Network.send net ~src:0 ~dst:9 (Ping 0));
  let raised =
    try
      let engine = Sim.Engine.create ~seed:1L () in
      ignore
        (Net.Network.of_spec
           Net.Spec.(default |> with_oracle_us (constant_delay 1))
           engine ~n:0);
      false
    with Invalid_argument _ -> true
  in
  check bool_t "n=0 rejected" true raised;
  Alcotest.check_raises "spec without oracle"
    (Invalid_argument "Network.of_spec: spec needs with_oracle_us")
    (fun () ->
      ignore
        (Net.Network.of_spec Net.Spec.default
           (Sim.Engine.create ~seed:1L ())
           ~n:2))

let prop_reliable_no_loss =
  (* Every message sent between non-crashed processes is delivered exactly
     once (reliability), for any delays. *)
  QCheck.Test.make ~name:"network is reliable (no loss, no duplication)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 500))
    (fun delays ->
      let engine = Sim.Engine.create ~seed:3L () in
      let remaining = ref delays in
      let oracle ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ =
        match !remaining with
        | d :: rest ->
            remaining := rest;
            d
        | [] -> 0
      in
      let net =
        Net.Network.of_spec
          Net.Spec.(default |> with_oracle_us oracle)
          engine ~n:2
      in
      let received = ref 0 in
      Net.Network.set_handler net 1 (fun ~src:_ _ -> incr received);
      List.iteri (fun i _ -> Net.Network.send net ~src:0 ~dst:1 (Ping i)) delays;
      Sim.Engine.run_until engine (us 1000);
      !received = List.length delays)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "delivery with delay" `Quick test_delivery_with_delay;
          Alcotest.test_case "broadcast excludes self" `Quick
            test_broadcast_excludes_self;
          Alcotest.test_case "non-fifo" `Quick test_non_fifo_delays;
          Alcotest.test_case "crash semantics" `Quick
            test_crash_stops_sending_and_receiving;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "tracer" `Quick test_tracer_events;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          qtest prop_reliable_no_loss;
        ] );
    ]
