(** Compiles a {!Plan} onto a live simulation stack.

    [attach] validates the plan and schedules every action as a packed
    {!Sim.Engine.call_at} event (static functions, one small record per
    action — nothing on the per-message hot path). Applied actions emit
    {!Obs.Event.c_fault} events ([Partition]/[Recover]/[Adversary_move])
    through the engine sink under the usual [wants] guard, so they feed
    digests and traces like every other layer.

    The adaptive adversary is event-driven: {!sink} consumes
    [Leader_change] events, and once the plan's [Adaptive] action fires,
    any moment at which every non-crashed process agrees on a leader that
    is not the current victim re-targets the scenario's victim override at
    it ({!Scenarios.Scenario.set_victim_override}). The harness must tee
    {!sink} into the engine sink for adaptive plans (see [Harness.Run]). *)

type pid = int
type t

(** [attach plan ~iface ~scenario] validates [plan] against the cluster
    size and the network's topology, and schedules its actions on the
    cluster's engine. Raises [Invalid_argument] (before any event runs)
    if a [Cut_edge] or [Degrade_edge] names two nodes the topology does
    not connect directly, or a [Cut_rack] names a rack at or past
    {!Net.Topology.group_count}. Call before
    the run starts; crashes scheduled by the plan act on the cluster's
    network, recoveries and partition-heal catch-ups go through the
    algorithm's {!Omega.Iface} hooks (so faults work the same over any
    algorithm a run selects), partitions and duplication bursts through
    the {!Net.Network} fault surface, and the adaptive adversary through
    [scenario]'s victim override. *)
val attach :
  Plan.t -> iface:Omega.Iface.t -> scenario:Scenarios.Scenario.t -> t

(** Sink consuming [Leader_change] events (mask {!Obs.Event.c_omega}) that
    drives the adaptive adversary; tee it into the engine sink iff
    {!adaptive_in_plan}. *)
val sink : t -> Obs.Sink.t

(** Does the plan contain an [Adaptive] action? *)
val adaptive_in_plan : Plan.t -> bool

(** Number of adversary re-targetings so far. *)
val moves : t -> int

(** Number of recoveries applied so far. *)
val recoveries : t -> int

(** Current adversary target, [-1] before the first move. *)
val target : t -> pid
