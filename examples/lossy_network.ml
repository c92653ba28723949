(* Leader election over fair-lossy links (the paper's footnote 2).

   The base model assumes reliable links, but the paper notes fair-lossy
   links suffice: acknowledge and piggyback unacknowledged messages. This
   example runs Figure 3 over a network whose every edge is a
   [Fair_lossy 0.4] channel — each envelope survives a hop with
   probability 0.6, decided by a coin the network draws from its own
   engine-seeded stream (DESIGN.md §17) — through the Retransmit layer
   that implements exactly that construction, and shows the election
   still working, including detection of a crash.

     dune exec examples/lossy_network.exe *)

let () =
  let n = 5 and t = 2 in
  let engine = Sim.Engine.create ~seed:8L () in
  let rng = Dstruct.Rng.split (Sim.Engine.rng engine) in

  (* Delays of 0.5-2ms; the 40% loss is the channel class's business. *)
  let base ~now:_ ~seq:_ ~at:_ ~src:_ ~dst:_ _ = 500 + Dstruct.Rng.int rng 1500 in
  let channels ~src:_ ~dst:_ = Net.Topology.Fair_lossy 0.4 in
  let layer =
    Net.Retransmit.create ~channels engine ~n ~oracle:base
      ~resend_every:(Sim.Time.of_ms 5)
  in
  Net.Retransmit.start layer;

  (* Figure 3 over the reliable channels the layer provides. *)
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let crashed = Array.make n false in
  let nodes =
    Array.init n (fun me ->
        Omega.Node.create_with_transport config
          {
            Omega.Node.engine;
            n;
            send =
              (fun ~dst m ->
                if not crashed.(me) then Net.Retransmit.send layer ~src:me ~dst m);
            halted = (fun () -> crashed.(me));
          }
          ~me)
  in
  Array.iteri
    (fun me node ->
      Net.Retransmit.set_handler layer me (fun ~src m ->
          Omega.Node.handle node ~src m))
    nodes;
  Array.iter Omega.Node.start nodes;

  ignore
    (Sim.Engine.schedule_at engine (Sim.Time.of_sec 3) (fun () ->
         Format.printf "t=3s    *** process 0 (the leader) crashes ***@.";
         crashed.(0) <- true;
         Net.Retransmit.crash layer 0));

  let rec sample () =
    let now = Sim.Engine.now engine in
    let correct = List.filter (fun p -> not crashed.(p)) (List.init n Fun.id) in
    Format.printf "t=%a leaders: %s@." Sim.Time.pp now
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "p%d->%d" p (Omega.Node.leader nodes.(p)))
            correct));
    if Sim.Time.(now < Sim.Time.of_sec 10) then
      ignore (Sim.Engine.schedule_after engine (Sim.Time.of_sec 1) sample)
  in
  ignore (Sim.Engine.schedule_after engine (Sim.Time.of_sec 1) sample);

  Sim.Engine.run_until engine (Sim.Time.of_sec 10);
  Format.printf
    "wire envelopes: %d (of which retransmissions and acks), payloads \
     delivered: %d, outstanding backlog: %d, shed by the pending bound: %d@."
    (Net.Retransmit.wire_sends layer)
    (Net.Retransmit.delivered layer)
    (Net.Retransmit.backlog layer)
    (Net.Retransmit.shed layer);
  let leaders =
    List.filter_map
      (fun p -> if crashed.(p) then None else Some (Omega.Node.leader nodes.(p)))
      (List.init n Fun.id)
  in
  match leaders with
  | l :: rest when List.for_all (( = ) l) rest && not crashed.(l) ->
      Format.printf "stable leader over a 40%%-lossy network: %d@." l
  | _ -> Format.printf "no agreement - unexpected@."
