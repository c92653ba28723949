type pid = int

type instance = {
  start : unit -> unit;
  crash_at : pid -> Sim.Time.t -> unit;
  agreed_leader : unit -> pid option;
  min_round : unit -> int;
}

type algo = {
  name : string;
  describe : string;
  make : Sim.Engine.t -> Scenarios.Scenario.t -> instance;
}

(* An omega-family instance: the paper's node with a given variant and
   closure rule, configured from the scenario's (n, t, beta). *)
let omega_instance ~variant ~closure engine scenario =
  let p = Scenarios.Scenario.params scenario in
  let config =
    {
      (Omega.Config.default ~n:p.Scenarios.Scenario.n
         ~t:p.Scenarios.Scenario.t variant)
      with
      Omega.Config.beta = p.Scenarios.Scenario.beta;
      closure;
    }
  in
  let oracle =
    Scenarios.Scenario.oracle_us scenario
      ~round_of:Scenarios.Scenario.round_rn_of_omega
  in
  let net =
    Net.Spec.(default |> with_oracle_us oracle)
    |> fun spec -> Net.Network.of_spec spec engine ~n:p.Scenarios.Scenario.n
  in
  let cluster = Omega.Cluster.create config net in
  {
    start = (fun () -> Omega.Cluster.start cluster);
    crash_at = (fun q time -> Omega.Cluster.crash_at cluster q time);
    agreed_leader = (fun () -> Omega.Cluster.agreed_leader cluster);
    min_round =
      (fun () ->
        List.fold_left
          (fun acc q ->
            min acc (Omega.Node.receiving_round (Omega.Cluster.node cluster q)))
          max_int
          (Net.Network.correct net));
  }

let fig1 =
  {
    name = "fig1";
    describe = "paper Figure 1 (needs A': rotating star on every round)";
    make = omega_instance ~variant:Omega.Config.Fig1 ~closure:Omega.Config.Conjunction;
  }

let fig2 =
  {
    name = "fig2";
    describe = "paper Figure 2 (A: intermittent rotating star)";
    make = omega_instance ~variant:Omega.Config.Fig2 ~closure:Omega.Config.Conjunction;
  }

let fig3 =
  {
    name = "fig3";
    describe = "paper Figure 3 (A, bounded variables)";
    make = omega_instance ~variant:Omega.Config.Fig3 ~closure:Omega.Config.Conjunction;
  }

let timer_only =
  {
    name = "timer-only";
    describe = "pure timeout detector (eventual t-source family mechanism)";
    make = omega_instance ~variant:Omega.Config.Fig1 ~closure:Omega.Config.Timer_only;
  }

let count_only =
  {
    name = "count-only";
    describe = "pure order detector (message-pattern mechanism, MMR03)";
    make = omega_instance ~variant:Omega.Config.Fig1 ~closure:Omega.Config.Count_only;
  }

let heartbeat =
  {
    name = "heartbeat";
    describe = "classic per-link timeout election (no suspicion exchange)";
    make =
      (fun engine scenario ->
        let p = Scenarios.Scenario.params scenario in
        let oracle =
          Scenarios.Scenario.oracle_us scenario ~round_of:Heartbeat.round_of
        in
        let net =
          Net.Spec.(default |> with_oracle_us oracle)
          |> fun spec ->
          Net.Network.of_spec spec engine ~n:p.Scenarios.Scenario.n
        in
        let cluster =
          Heartbeat.create_cluster net ~beta:p.Scenarios.Scenario.beta
            ~initial_timeout:(Sim.Time.of_ms 20)
        in
        {
          start = (fun () -> Heartbeat.start cluster);
          crash_at =
            (fun q time ->
              ignore
                (Sim.Engine.schedule_at engine time (fun () ->
                     Net.Network.crash net q)));
          agreed_leader = (fun () -> Heartbeat.agreed_leader cluster);
          min_round = (fun () -> Heartbeat.min_epoch cluster);
        });
  }

let all = [ fig1; fig2; fig3; timer_only; count_only; heartbeat ]

let by_name name = List.find_opt (fun a -> a.name = name) all
