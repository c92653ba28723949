(* A 64-process cluster under an intermittent rotating star and a lossy
   network — the scale the timing-wheel scheduler and pooled message
   flights exist for (DESIGN.md 13).

   The star's center is only guaranteed timely *intermittently* (at star
   rounds at most D apart), every link is a fair-lossy channel that drops
   10% of the messages, and the adversary victimizes a rotating process
   the whole time; Figure 2 still elects the center. One simulated minute
   at n=64 is several million messages, which is why this example prints
   the throughput numbers next to the leader timeline.

     dune exec examples/large_cluster.exe *)

let () =
  let n = 64 in
  let t = (n - 1) / 2 in
  let center = n - 2 in

  (* Tight config (receiving rounds track sending rounds), star from round
     2, and fixed 8-round victim blocks. The block length is the point:
     Figure 2's window condition caps a process's suspicion level at the
     length of its longest consecutive victim stretch, so 8-round victims
     cap near 8 while the center — victimized only in the <= D-1 = 3-round
     gaps between star rounds — caps near 4 and wins. (Growing blocks, the
     discriminating adversary of E2, need a full rotation of ever-longer
     blocks over n-1 = 63 victims: minutes of simulated time at this n.) *)
  let config =
    {
      (Omega.Config.default ~n ~t Omega.Config.Fig2) with
      Omega.Config.initial_timeout = Sim.Time.of_ms 10;
    }
  in
  let params =
    {
      (Scenarios.Scenario.default_params ~n ~t ~beta:(Sim.Time.of_ms 10)) with
      Scenarios.Scenario.rn0 = 2;
      victim_block0 = 8;
      victim_block_step = 0;
    }
  in
  let env =
    Scenarios.Env.make ~params config
      (Scenarios.Scenario.Intermittent_star { center; d = 4 })
  in

  (* The rotation completes (and the center takes over) just before 10s;
     the stability judge wants the stable suffix to cover the final third
     of the rounds, hence the 16s horizon. *)
  let horizon = Sim.Time.of_sec 16 in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon horizon
      |> with_min_stable (Sim.Time.of_sec 1)
      |> with_link_channel (Net.Topology.Fair_lossy 0.1)
      |> with_check false)
  in
  Format.printf "n=%d t=%d, intermittent star on p%d (D=4), 10%% loss@." n t
    center;
  let result = Harness.Run.run ~spec ~env ~seed:5L () in

  (* Leader timeline: one line per second of simulated time, from the
     run's samples (every 100ms; printing each would drown the point). *)
  List.iter
    (fun (s : Harness.Run.sample) ->
      if Sim.Time.to_us s.Harness.Run.time mod 1_000_000 = 0 then
        Format.printf "t=%a round %-5d %s@." Sim.Time.pp s.Harness.Run.time
          s.Harness.Run.round
          (match s.Harness.Run.agreed with
          | Some l when l = center -> Printf.sprintf "leader: %d (the center)" l
          | Some l -> Printf.sprintf "leader: %d" l
          | None -> "no agreement yet"))
    result.Harness.Run.samples;

  let rounds = max 1 result.Harness.Run.min_sending_round in
  Format.printf "messages: %d sent, %d delivered (%d/round at n=%d)@."
    result.Harness.Run.messages_sent result.Harness.Run.messages_delivered
    (result.Harness.Run.messages_sent / rounds)
    n;
  match result.Harness.Run.stabilized_at with
  | Some at when result.Harness.Run.final_leader = Some center ->
      Format.printf "stable on the center since t=%a@." Sim.Time.pp at
  | Some at ->
      Format.printf "stable since t=%a (not the center - unexpected)@."
        Sim.Time.pp at
  | None -> Format.printf "no stabilization - unexpected@."
