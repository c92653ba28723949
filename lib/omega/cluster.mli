(** Convenience wiring of [n] {!Node}s over one network — what examples,
    tests and the harness instantiate. *)

type pid = int

type t

(** [create cfg net] builds one node per process id of [net]. *)
val create : Config.t -> Message.t Net.Network.t -> t

(** [start t] starts every node; [start ~owned t] only those with
    [owned i = true] — the intra-run parallel driver builds a full
    cluster per shard replica (construction keeps RNG streams aligned)
    but runs only the shard's own processes (DESIGN.md §18). *)
val start : ?owned:(pid -> bool) -> t -> unit

val node : t -> pid -> Node.t

(** [crash_at t p time] schedules a crash of process [p]. *)
val crash_at : t -> pid -> Sim.Time.t -> unit

(** The algorithm-agnostic surface consumed by {!Harness.Run} and
    {!Fault.Injector} (DESIGN.md §15). Construction draws no randomness
    and schedules nothing. *)
val iface : t -> Iface.t

(** Current [leader ()] output of every non-crashed process. *)
val leaders : t -> (pid * pid) list

(** [Some l] iff every non-crashed process currently outputs the same leader
    [l] and [l] has not crashed — the "good period" condition of §1.1. *)
val agreed_leader : t -> pid option
