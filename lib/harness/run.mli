(** Single-run experiment driver: engine + network + scenario + cluster,
    with leader sampling, stabilization detection, fault injection and
    assumption checking — and, when asked, a consensus or atomic-broadcast
    layer over the Ω cluster (Theorem 5).

    The world under test is a {!Scenarios.Env.t} (validated once, shared
    across runs); everything about {e this} run — horizon, crashes, fault
    plan, which observers to attach — is a {!Spec.t}. *)

type pid = int

(** One leader-oracle sample. *)
type sample = {
  time : Sim.Time.t;
  round : int;  (** slowest correct process's receiving round *)
  agreed : pid option;  (** all agree on one correct leader? *)
}

(** One process's outcome in the spec's consensus layer. *)
type outcome =
  | Decision of {
      value : int option;  (** the decided value, once decided *)
      at : Sim.Time.t option;  (** the local decision time *)
      ballots : int;  (** ballots this process started *)
    }  (** single-decree consensus *)
  | Delivered of int list
      (** atomic broadcast: the commands delivered, in delivery order *)

type result = {
  stabilized_at : Sim.Time.t option;
      (** start of the maximal suffix of samples with one constant, correct,
          agreed leader reaching the horizon, provided the suffix spans at
          least [min_stable]; [None] if the run ends in anarchy or the
          suffix is too short to rule out a coincidental lull *)
  final_leader : pid option;  (** agreed leader at the horizon, if any *)
  samples : sample list;
  messages_sent : int;  (** Ω network only, as is [messages_delivered] *)
  messages_delivered : int;
  alive_bytes : int;
      (** total wire bytes of ALIVE messages ([0] unless [wire_stats]) *)
  suspicion_bytes : int;  (** ditto, SUSPICION messages *)
  max_susp_level : int;  (** max over correct nodes, end of run *)
  max_timeout : Sim.Time.t;  (** largest timeout any correct node armed *)
  lattice_violations : int;
      (** samples at which some correct node broke Lemma 8's
          [max - min <= 1] (only meaningful for Fig3 variants) *)
  max_round_state : int;
      (** peak live round-indexed entries on any node (memory boundedness) *)
  min_sending_round : int;  (** slowest correct process's final s_rn *)
  checker : Scenarios.Checker.report option;
      (** assumption-compliance report, when [check] (rounds overlapping a
          plan outage window are masked, see {!Scenarios.Checker.verify}) *)
  horizon : Sim.Time.t;
  digest : int64 option;
      (** FNV fold over the run's full event stream, when [digest]. Same
          seed (and same plan) ⇒ same digest, whatever the pool size — the
          determinism oracle (see {!Obs.Digest}). *)
  re_elections : int;
      (** changes of agreed leader over the sampled history (anarchy gaps
          between two reigns of the {e same} leader do not count) *)
  leadership_epochs : int;
      (** maximal sampled stretches of one constant agreed leader *)
  partition_downtime : Sim.Time.t;
      (** total time (within the horizon) some plan partition was in force *)
  adversary_moves : int;  (** adaptive-adversary re-targetings *)
  recoveries : int;  (** plan recoveries applied *)
  outcomes : outcome array option;
      (** each process's layer outcome, indexed by pid (crashed processes
          included); [None] when the spec has no layer *)
}

(** Per-run knobs, separated from the environment. Build one with
    functional updates over {!Spec.default}:
    {[
      Run.Spec.(default |> with_horizon (Sim.Time.of_sec 10)
                        |> with_plan plan |> with_digest true)
    ]}
    The setters take the record {e last} so they chain with [|>]. *)
module Spec : sig
  (** [(pid, time, value)]: at [time], process [pid] proposes (or submits)
      [value]. *)
  type input = pid * Sim.Time.t * int

  (** A second protocol stack over the Ω cluster. Each process runs one
      node on a second network built over the Ω network's scenario,
      topology and channel, with that process's Ω leader as its oracle,
      a 50 ms retry period and the crash bound [n - alpha]. The inputs are
      rank-0 control events, like the crash schedule; a scheduled crash
      halts the process in both networks. Fault plans act on the Ω
      network only. *)
  type layer =
    | No_layer
    | Consensus of input list
        (** single-decree consensus ({!Consensus.Single}); the inputs
            are proposals *)
    | Broadcast of input list
        (** atomic broadcast ({!Consensus.Broadcast}); the inputs are
            submitted commands *)

  type t = {
    horizon : Sim.Time.t;  (** default 30 sim-s *)
    min_stable : Sim.Time.t option;  (** default [horizon / 5] *)
    crashes : (pid * Sim.Time.t) list;  (** permanent process failures *)
    plan : Fault.Plan.t;  (** default {!Fault.Plan.empty} — zero cost *)
    check : bool;  (** attach an assumption {!Scenarios.Checker} (default) *)
    wire_stats : bool;  (** count ALIVE/SUSPICION wire bytes (E5) *)
    digest : bool;  (** attach an {!Obs.Digest} over the event stream *)
    sink : Obs.Sink.t option;
        (** extra consumer (e.g. an {!Obs.Jsonl} writer for [--trace]) *)
    algo : [ `Gossip | `Relay | `Heartbeat ];
        (** Ω algorithm behind the {!Omega.Iface} surface (default
            [`Gossip], the Figure-1/2/3 family selected by
            {!Omega.Config.variant} and {!Omega.Config.closure}); [`Relay]
            is the communication-efficient {!Omega.Lean} variant — O(n)
            messages per round instead of Θ(n²) (DESIGN.md §15);
            [`Heartbeat] is the classic per-link timeout baseline
            {!Omega.Heartbeat} (experiment E4), which cannot recover a
            crashed process *)
    topology : Net.Topology.kind;
        (** network graph (default [Complete]); any other kind routes every
            message hop by hop over precomputed shortest paths and scales
            the checker's timeliness bound by the diameter (DESIGN.md §17) *)
    link_channel : Net.Topology.channel;
        (** channel class applied uniformly to every edge (default
            [Reliable]); a non-default class also switches the network to
            the routed path, even on [Complete] *)
    intra_domains : int;
        (** shard one run's event execution over this many domains under
            conservative windows (default 1 = the sequential engine, the
            only path with zero overhead; DESIGN.md §18). The event
            stream, digest and result are byte-identical for every value,
            however the run is sliced into {!advance} calls. Runs that
            need mid-window observability — an external [sink], an
            adaptive-adversary plan — silently fall back to sequential
            execution, as {!start} decides. A sharded run snapshots like a
            sequential one, and its {!restore}d copy stays sharded. *)
    layer : layer;  (** default [No_layer] *)
  }

  val default : t
  val with_horizon : Sim.Time.t -> t -> t
  val with_min_stable : Sim.Time.t -> t -> t
  val with_crashes : (pid * Sim.Time.t) list -> t -> t
  val with_plan : Fault.Plan.t -> t -> t
  val with_check : bool -> t -> t
  val with_wire_stats : bool -> t -> t
  val with_digest : bool -> t -> t
  val with_sink : Obs.Sink.t -> t -> t
  val with_algo : [< `Gossip | `Relay | `Heartbeat ] -> t -> t
  val with_topology : Net.Topology.kind -> t -> t
  val with_link_channel : Net.Topology.channel -> t -> t

  (** Raises [Invalid_argument] below 1. Values above the process count
      are clamped to one process per shard. *)
  val with_intra_domains : int -> t -> t

  val with_layer : layer -> t -> t
end

(** [run ~env ~seed ()] executes one simulation of [env] under [spec]
    (default {!Spec.default}).

    The run owns its whole stack: a fresh engine seeded with [seed], the
    scenario and network built by {!Scenarios.Env.build}, the cluster, the
    spec's layer and — when [spec.plan] is non-empty — a
    {!Fault.Injector} compiled onto the engine. All observers
    ([wire_stats], [check], [digest], [sink], the adaptive adversary's
    sink) compose under one {!Obs.Sink.tee}; none perturbs the simulation, and with all off the
    engine keeps its null sink (the whole layer costs one branch per event
    site). An empty plan adds nothing to the event stream: digests of
    plan-free runs are byte-identical to the pre-fault-API ones. *)
val run : ?spec:Spec.t -> env:Scenarios.Env.t -> seed:int64 -> unit -> result

(** {2 Sliced execution and snapshots (DESIGN.md §16)}

    [run] is [finish (start ())], for every [intra_domains]. The sliced
    form exists for checkpointed sweeps: build the stack, advance in
    simulated-time slices, snapshot between slices, and resume a snapshot
    in a later process. Slicing is observationally invisible — however a
    run is cut into [advance] calls, and whatever its [intra_domains], the
    event stream, digest and result are bit-identical to the
    uninterrupted sequential [run]. *)

(** A started, resumable run: the whole simulation stack plus the
    accumulating observers. A sharded run (DESIGN.md §18) also holds its
    shard replicas, but no domains (see {!advance}). *)
type live

(** Build the stack and schedule the first events, without executing any:
    the returned run sits at time zero. With [intra_domains] > 1 (and no
    fallback) this builds the shard replicas too, and raises
    [Invalid_argument] if the scenario's delay floor leaves no positive
    lookahead. *)
val start : ?spec:Spec.t -> env:Scenarios.Env.t -> seed:int64 -> unit -> live

val now : live -> Sim.Time.t
val horizon : live -> Sim.Time.t

(** Execute every event up to [min until horizon]. A sharded run
    executes them in conservative windows on a pool of one domain per
    shard, created and shut down within this call. *)
val advance : live -> until:Sim.Time.t -> unit

(** [Marshal.to_bytes] of the whole run with [Marshal.Closures]: every
    engine and pending event, the nodes, the observers and, when sharded,
    every shard replica and sealed cross-shard arrival. Raises
    [Invalid_argument] if the spec carries an external [sink] (a trace
    writer holds an out-channel). The live run is unperturbed. *)
val snapshot : live -> Bytes.t

(** Rebuild a run from {!snapshot} bytes: a disjoint stack that continues
    bit-identically. Same-binary only ([Marshal.Closures]). *)
val restore : Bytes.t -> live

(** Run the remaining events to the horizon and compute the {!result}.
    Idempotent over [advance]: finishing an already-exhausted run only
    folds the observers. *)
val finish : live -> result

(** Stabilization latency [stabilized_at] as float ms, or [nan]. *)
val stabilization_ms : result -> float
