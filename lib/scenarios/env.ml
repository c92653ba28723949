type pid = int

type t = {
  config : Omega.Config.t;
  params : Scenario.params;
  regime : Scenario.regime;
  scenario_seed : int64;
  classify : Omega.Message.t -> Obs.Event.msg_info;
}

let make ?params ?(classify = Omega.Message.info)
    ?(scenario_seed = 42L) config regime =
  Omega.Config.validate config;
  let params =
    match params with
    | Some p -> p
    | None ->
        Scenario.default_params ~n:config.Omega.Config.n
          ~t:(config.Omega.Config.n - config.Omega.Config.alpha)
          ~beta:config.Omega.Config.beta
  in
  (* The consistency checks hand-wired setups kept getting wrong, now
     rejected in one place before anything runs. *)
  if params.Scenario.n <> config.Omega.Config.n then
    invalid_arg "Env.make: params.n differs from config.n";
  if config.Omega.Config.alpha <> params.Scenario.n - params.Scenario.t then
    invalid_arg "Env.make: config.alpha must equal n - t";
  if params.Scenario.beta <> config.Omega.Config.beta then
    invalid_arg "Env.make: params.beta differs from config.beta";
  (* Surface regime errors (center range, failover switch <= rn0) eagerly
     rather than at first [build] inside a pool task. *)
  ignore (Scenario.create params regime ~seed:scenario_seed);
  { config; params; regime; scenario_seed; classify }

let config t = t.config
let params t = t.params
let regime t = t.regime
let scenario_seed t = t.scenario_seed
let center t = Scenario.center_of_regime t.regime
let center_at t rn = Scenario.center_at_round t.regime rn

(* Fresh per engine: scenarios and networks hold run-local mutable state
   (plan memoization, counters, fault surfaces), so a pool task must build
   its own from the shared immutable [t]. A [build] over the default
   topology draws nothing from the engine, so it leaves the engine's
   stream exactly where hand-wiring left it — which keeps plan-free
   digests byte-identical across the API migration. *)
let build ?(topology = Net.Topology.Complete)
    ?(channel = Net.Topology.Reliable) t engine =
  let scenario =
    Scenario.create t.params t.regime ~seed:t.scenario_seed
  in
  (* Eta-expanded on purpose: a partial application of [oracle_us] would
     be an arity-1 curry closure, and the network's call through it would
     then allocate an intermediate closure per remaining argument — per
     message. The explicit [fun] has exact arity 6, so [caml_apply6]
     jumps straight to the body. *)
  let oracle_us ~now ~seq ~at ~src ~dst msg =
    Scenario.oracle_us scenario ~round_of:Scenario.round_rn_of_omega ~now
      ~seq ~at ~src ~dst msg
  in
  let spec =
    Net.Spec.default
    |> Net.Spec.with_classify t.classify
    |> Net.Spec.with_oracle_us oracle_us
    |> Net.Spec.with_topology topology
  in
  (* A channel selector — even a uniform one — switches the network to the
     routed path, so only install one when the row asked for a non-default
     class: the complete/Reliable default must stay on the legacy direct
     dispatch, digests included. *)
  let spec =
    match channel with
    | Net.Topology.Reliable -> spec
    | c -> Net.Spec.with_channels (fun ~src:_ ~dst:_ -> c) spec
  in
  (scenario, Net.Network.of_spec spec engine ~n:t.config.Omega.Config.n)

let describe t =
  Scenario.describe (Scenario.create t.params t.regime ~seed:t.scenario_seed)
