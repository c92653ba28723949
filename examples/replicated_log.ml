(* State-machine replication on top of the elected leader (the workload the
   paper's introduction motivates: Omega is the weakest detector for
   consensus, and consensus gives atomic broadcast).

   Seven replicas run a replicated bank-account log. Clients submit
   operations at three different replicas; the atomic-broadcast layer
   (repeated Omega-based consensus) sequences them identically everywhere,
   even though the initial leader crashes mid-run.

     dune exec examples/replicated_log.exe *)

type op = Deposit of int | Withdraw of int

let op_names = [| "alice"; "bob"; "carol" |]

let pp_op ppf = function
  | Deposit cents -> Format.fprintf ppf "deposit %d" cents
  | Withdraw cents -> Format.fprintf ppf "withdraw %d" cents

let apply balance = function
  | Deposit cents -> balance + cents
  | Withdraw cents -> balance - cents

let () =
  let n = 7 and t = 3 in
  let engine = Sim.Engine.create ~seed:5L () in
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let params =
    Scenarios.Scenario.default_params ~n ~t ~beta:config.Omega.Config.beta
  in
  let scenario =
    Scenarios.Scenario.create params
      (Scenarios.Scenario.Intermittent_star { center = 5; d = 4 })
      ~seed:9L
  in

  (* Omega runs on its own channel; the replication traffic on another. *)
  let net_for oracle =
    Net.Spec.(default |> with_oracle_us oracle) |> fun spec ->
    Net.Network.of_spec spec engine ~n
  in
  let omega_net =
    net_for
      (Scenarios.Scenario.oracle_us scenario
         ~round_of:Scenarios.Scenario.round_rn_of_omega)
  in
  let omega = Omega.Cluster.create config omega_net in
  (* Replication messages carry no round: [-1] leaves them unconstrained. *)
  let log_net =
    net_for (Scenarios.Scenario.oracle_us scenario ~round_of:(fun _ -> -1))
  in
  let replicas =
    Array.init n (fun me ->
        Consensus.Broadcast.create log_net ~me
          ~oracle:(fun () -> Omega.Node.leader (Omega.Cluster.node omega me))
          ~retry_every:(Sim.Time.of_ms 50) ~crash_bound:t ~equal:( = ))
  in
  Omega.Cluster.start omega;
  Array.iter Consensus.Broadcast.start replicas;

  (* Clients: 12 operations submitted at replicas 1, 2, 3 over 3 seconds. *)
  let ops =
    [
      Deposit 100; Deposit 250; Withdraw 30; Deposit 75; Withdraw 120;
      Deposit 10; Withdraw 5; Deposit 300; Withdraw 80; Deposit 60;
      Withdraw 40; Deposit 20;
    ]
  in
  List.iteri
    (fun i op ->
      let client = i mod 3 in
      let replica = 1 + client in
      ignore
        (Sim.Engine.schedule_at engine
           (Sim.Time.of_ms (250 * i))
           (fun () ->
             Format.printf "t=%a %s submits '%a' at replica %d@."
               Sim.Time.pp
               (Sim.Engine.now engine)
               op_names.(client) pp_op op replica;
             Consensus.Broadcast.submit replicas.(replica) (i, op))))
    ops;

  (* Crash replica 0 (often an early leader) at 1.5s. *)
  ignore
    (Sim.Engine.schedule_at engine (Sim.Time.of_ms 1500) (fun () ->
         Format.printf "t=%a *** replica 0 crashes ***@." Sim.Time.pp
           (Sim.Engine.now engine);
         Net.Network.crash omega_net 0;
         Net.Network.crash log_net 0));

  Sim.Engine.run_until engine (Sim.Time.of_sec 60);

  (* Every correct replica must have the same log and the same balance. *)
  let correct = Net.Network.correct log_net in
  let logs =
    List.map (fun p -> (p, Consensus.Broadcast.delivered replicas.(p))) correct
  in
  let reference = match logs with [] -> [] | (_, l) :: _ -> l in
  Format.printf "@.replicated log (%d entries), as delivered by replica %d:@."
    (List.length reference)
    (List.hd correct);
  List.iteri
    (fun pos (i, op) -> Format.printf "  %2d. [cmd %2d] %a@." pos i pp_op op)
    reference;
  let balance = List.fold_left (fun b (_, op) -> apply b op) 0 reference in
  Format.printf "final balance: %d cents@." balance;
  let agree = List.for_all (fun (_, l) -> l = reference) logs in
  Format.printf "all %d correct replicas agree on the log: %b@."
    (List.length correct) agree;
  if (not agree) || List.length reference <> List.length ops then exit 1
