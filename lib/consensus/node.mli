(** One process of the Ω-based indulgent consensus (Theorem 5 of the paper:
    Ω + majority of correct processes ⇒ consensus).

    The protocol is a single-decree ballot protocol in the Paxos family,
    matching the leader-based indulgent consensus structure of [GR04, MR01,
    Lamport98] cited by the paper:

    - {b Safety} (agreement + validity) holds {e whatever} the leader oracle
      does — ballots and promise/accept quorums of size [n - t] with
      [t < n/2] guarantee any two deciding quorums intersect.
    - {b Liveness} needs Ω: a retry timer fires periodically; a process whose
      oracle says it is the leader and that sees no progress claims a fresh,
      higher ballot. Once Ω stabilizes on one correct leader, that leader is
      eventually the only proposer and its ballot decides.

    The leader oracle is injected as a closure, so any Ω implementation in
    this repository (Figures 1-3, the baselines) can drive consensus. *)

type pid = int

(** How a node reaches its peers. Decoupled from {!Net.Network} so that a
    multi-instance sequencer ({!Broadcast}) can tag and demultiplex the
    messages of many consensus instances over one network. *)
type 'v transport = {
  engine : Sim.Engine.t;
  n : int;
  send : dst:pid -> 'v Message.t -> unit;
  halted : unit -> bool;  (** has this process crashed? *)
}

(** [network_transport net ~me] is the direct single-instance transport. *)
val network_transport :
  'v Message.t Net.Network.t -> me:pid -> 'v transport

type 'v t

(** [create transport ~me ~rng ~leader_oracle ~retry_every ~crash_bound]
    allocates the node, splitting its own stream off [rng]. [rng] must be
    a stream only this process draws from after setup (or the engine's
    root, {!Sim.Engine.rng}, during setup): on a sharded run a replica
    executes only its own processes' code, so a draw from a shared stream
    at run time would diverge from the sequential run. The caller must
    route incoming messages to {!handle}. Requires [crash_bound < n/2]. *)
val create :
  'v transport ->
  me:pid ->
  rng:Dstruct.Rng.t ->
  leader_oracle:(unit -> pid) ->
  retry_every:Sim.Time.t ->
  crash_bound:int ->
  'v t

(** Deliver an incoming message to this node. *)
val handle : 'v t -> src:pid -> 'v Message.t -> unit

(** Start the retry task under this process's rank
    ({!Sim.Engine.set_rank}), so the task and everything it schedules are
    created by this process. *)
val start : 'v t -> unit

(** [propose t v] submits this process's initial value. May be called once;
    later calls are ignored. *)
val propose : 'v t -> 'v -> unit

(** The decided value, once decided. *)
val decision : 'v t -> 'v option

(** Time of local decision. *)
val decided_at : 'v t -> Sim.Time.t option

(** Number of ballots this node started (cost observer). *)
val ballots_started : 'v t -> int
