(** Classic per-link timeout leader election (the style of the earliest Ω
    implementations, e.g. Larrea-Fernández-Arévalo [LFA00]) — E4's
    baseline column, behind the same {!Iface} as the paper's algorithms.

    Every process broadcasts a [Heartbeat { rn = epoch }] every [beta]
    (jittered down to [4/5 beta]); every receiver keeps an adaptive
    per-sender deadline, starting at [initial_timeout] and lengthened by
    [initial_timeout] on each false suspicion, and a suspected set;
    [leader () = min id not suspected]. No suspicion exchange, no quorum:
    each process trusts its own timers — which is why the algorithm needs
    (roughly) the leader's output links to be eventually timely at
    {e every} receiver, a far stronger assumption than the paper's A.
    Select it via [Harness.Run.Spec.with_algo `Heartbeat]. *)

type pid = int

type t

(** [create cfg net] builds one process per network endpoint and installs
    their receive handlers; only [n], [beta] and [initial_timeout] of
    [cfg] matter. Like {!Cluster.create}, creation only splits
    per-process RNG streams — it schedules nothing and emits nothing. *)
val create : Config.t -> Message.t Net.Network.t -> t

(** Arms every process's deadlines and heartbeat task, each under the
    process's own rank; [owned] restricts the started set to one shard's
    processes, as in {!Cluster.start} (DESIGN.md §18). *)
val start : ?owned:(pid -> bool) -> t -> unit

(** The algorithm-agnostic surface consumed by {!Harness.Run}. The epoch
    is both the sending and the receiving round; [recover] raises
    [Invalid_argument] (a heartbeat node keeps no state to rejoin with)
    and [resync] does nothing. *)
val iface : t -> Iface.t

(** Suspected set of process [p], in pid order (observer for tests). *)
val suspected : t -> pid -> pid list
