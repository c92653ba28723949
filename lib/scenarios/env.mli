(** Validated run environment: everything about a simulated world except
    the engine seed and the fault plan.

    [Env.make] assembles algorithm config, scenario regime and params in
    one step, and rejects inconsistent combinations
    ([params.n <> config.n], [alpha <> n - t], mismatched [beta], bad
    regime centers) up front — the checks hand-wired setups kept
    scattering over [Network.of_spec] + oracle plumbing in different
    orders. An [Env.t] is immutable and shareable; [build] instantiates
    the run-local scenario and network for one engine (pool tasks each
    build their own, per the engine-local-state rule).

    Fault plans deliberately ride [Harness.Run.Spec], not the environment:
    [Fault] sits above [Scenarios] in the library order (the adaptive
    adversary drives {!Scenario.set_victim_override}), so this module
    cannot name {!Fault.Plan.t} — and a plan is per-run churn, not part of
    the world's definition. *)

type pid = int
type t

(** [make config regime] validates and freezes an environment.

    [params] default to
    [Scenario.default_params ~n ~t:(n - alpha) ~beta] derived from
    [config]; [scenario_seed] (default [42L]) fixes the scenario plan,
    independently of any run seed.
    Raises [Invalid_argument] on any inconsistency. *)
val make :
  ?params:Scenario.params ->
  ?scenario_seed:int64 ->
  Omega.Config.t ->
  Scenario.regime ->
  t

val config : t -> Omega.Config.t
val params : t -> Scenario.params
val regime : t -> Scenario.regime
val scenario_seed : t -> int64

(** The center in charge of round [rn]. *)
val center_at : t -> int -> pid option

(** [build t engine] instantiates the scenario and the Ω network for one
    engine: {!network} over a fresh scenario, with {!Omega.Message.info}
    and {!Scenario.round_rn_of_omega}, [topology] defaulting to [Complete]
    and [channel] to [Reliable]. Both are run-local: call once per
    simulation stack. *)
val build :
  ?topology:Net.Topology.kind ->
  ?channel:Net.Topology.channel ->
  t ->
  Sim.Engine.t ->
  Scenario.t * Omega.Message.t Net.Network.t

(** [network ~topology ~channel ~classify ~round_of t scenario engine] is
    a network of [config.n] processes whose delays come from [scenario]'s
    {!Scenario.oracle_us}, [round_of] projecting a message to its round
    tag ([-1]: no assumption applies) and [classify] to its observability
    record. Every network built over one scenario draws from the same
    per-executor delay streams. A network over the complete topology with
    reliable channels draws nothing from the engine.

    [topology] selects the network graph, and [channel] applies one
    channel class uniformly to every edge — [Fair_lossy p] is how a run
    loses messages; anything but [Complete] and [Reliable] switches the
    network to the routed multi-hop path (fresh digests). Heterogeneous
    per-edge channel maps are a [Net.Spec.with_channels] affair — build
    the network by hand for those. *)
val network :
  topology:Net.Topology.kind ->
  channel:Net.Topology.channel ->
  classify:('m -> Obs.Event.msg_info) ->
  round_of:('m -> int) ->
  t ->
  Scenario.t ->
  Sim.Engine.t ->
  'm Net.Network.t
