(** Communication-efficient Ω: the relay variant (DESIGN.md §15).

    Instead of the Figure family's all-to-all ALIVE gossip (Θ(n²) messages
    per round), every process sends one HEARTBEAT per round to its current
    leader estimate (the {e relay}), and only the relay broadcasts — one
    AGGREGATE per round carrying the suspicion-level vector. Steady state
    is [2(n-1)] messages per round: O(n). The relay raises the level of
    processes whose heartbeat counter stalls past an adaptive slack
    (measured in the relay's own rounds); every process monitors its relay
    and, past an adaptive budget of silent periods, raises the relay's
    level itself and broadcasts an ACCUSE — the only quadratic-ish traffic,
    flowing only while leadership actually moves.

    Same {!Message} network type, same seeded determinism, same hot-path
    contract as {!Node} (allocation-free handlers, interned copy-on-write
    AGGREGATE payloads, packed self-reposting tasks, mask-guarded
    emission; DESIGN.md §11/§14). Select it via
    [Harness.Run.Spec.with_algo `Relay], or drive it directly through
    {!iface}. *)

type pid = int

(** One process's state. All mutation happens inside engine callbacks. *)
type t

(** A full cluster over one shared {!Store}. *)
type cluster

(** [create cfg net] builds one process per network endpoint and installs
    their receive handlers. Like {!Cluster.create}, creation only splits
    per-process RNG streams — it schedules nothing and emits nothing. *)
val create : Config.t -> Message.t Net.Network.t -> cluster

(** Arms every process's heartbeat and monitor tasks at independent random
    offsets (§3: no relation between send times). [owned] restricts the
    armed set to one shard's processes, as in {!Cluster.start}
    (DESIGN.md §18). *)
val start : ?owned:(pid -> bool) -> cluster -> unit

val node : cluster -> pid -> t

(** The algorithm-agnostic surface consumed by {!Harness.Run} and
    {!Fault.Injector}. *)
val iface : cluster -> Iface.t

(** Current leader estimate: lexicographic min of [(level, pid)] over the
    process's own row. *)
val leader : t -> pid

(** Re-arms a process after {!Net.Network.recover}: persisted levels and
    counters survive; monitor evidence and staleness clocks are forgiven. *)
val recover : t -> unit

(** Partition-heal catch-up: forgives staleness/monitor evidence spanning
    the cut without restarting tasks. *)
val resync : t -> unit
