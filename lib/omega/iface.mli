(** The shared node interface (DESIGN.md §15): one algorithm-agnostic
    surface over a running Ω cluster — start, per-process leader output,
    crash-recovery hooks and the observers the harness samples — so
    {!Harness.Run} and {!Fault.Injector} select the algorithm the way the
    engine already selects its scheduler backend.

    Implementations: {!Cluster.iface} (the Figure-1/2/3 gossip family),
    {!Lean.iface} (the communication-efficient relay variant) and
    {!Heartbeat.iface} (the classic per-link timeout baseline). All three
    run over the same {!Message} network type, so networks, scenarios and
    classifiers need no algorithm plumbing.

    Construction is observationally free: building the record allocates a
    few closures and draws no randomness, which keeps digests of runs
    routed through it byte-identical to direct-wired ones. *)

type pid = int

type t = {
  config : Config.t;
  net : Message.t Net.Network.t;
  start : unit -> unit;  (** start every process *)
  leader_of : pid -> pid;  (** current [leader ()] output of a process *)
  recover : pid -> unit;
      (** un-crash the network endpoint and rejoin the process with its
          persisted state (crash-recovery, paper §1.3); {!Heartbeat}'s
          raises [Invalid_argument] *)
  resync : pid -> unit;
      (** re-seat a stranded-but-alive process past a partition gap
          (same catch-up rule as recovery; see DESIGN.md §12) *)
  sending_round : pid -> int;
  receiving_round : pid -> int;
  max_susp_level_seen : pid -> int;
  max_timeout_armed : pid -> Sim.Time.t;
  lattice_invariant_holds : pid -> bool;
      (** Lemma 8's [max - min <= 1]; vacuously [true] for algorithms
          without the bounded condition *)
  round_state_cardinal : pid -> int;
      (** live round-indexed entries (memory boundedness); [0] for
          algorithms with no per-round state *)
}

val config : t -> Config.t
val net : t -> Message.t Net.Network.t
val engine : t -> Sim.Engine.t
val n : t -> int
val start : t -> unit
val leader_of : t -> pid -> pid
val recover : t -> pid -> unit
val resync : t -> pid -> unit
val sending_round : t -> pid -> int
val receiving_round : t -> pid -> int
val max_susp_level_seen : t -> pid -> int
val max_timeout_armed : t -> pid -> Sim.Time.t
val lattice_invariant_holds : t -> pid -> bool
val round_state_cardinal : t -> pid -> int

(** [crash_at t p time] schedules a permanent-unless-recovered crash. *)
val crash_at : t -> pid -> Sim.Time.t -> unit

(** [Some l] iff every non-crashed process currently outputs the same
    leader [l] and [l] has not crashed — the "good period" of §1.1. *)
val agreed_leader : t -> pid option
