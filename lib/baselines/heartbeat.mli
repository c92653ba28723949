(** Classic per-link timeout leader election (the style of the earliest Ω
    implementations, e.g. Larrea-Fernández-Arévalo [LFA00]).

    Every process heartbeats every [beta]; every receiver keeps an adaptive
    per-sender deadline and a suspected set; [leader () = min id not
    suspected]. No suspicion exchange, no quorum: each process trusts its own
    timers — which is why the algorithm needs (roughly) the leader's output
    links to be eventually timely at {e every} receiver, a far stronger
    assumption than the paper's A. *)

type pid = int

type msg = Heartbeat of { epoch : int }

(** [round_of] for the scenario oracle: heartbeats are the assumption-
    constrained, round-tagged messages, so every message's round is its
    epoch. *)
val round_of : msg -> int

type t

type cluster

(** [create_cluster net ~beta ~initial_timeout] builds one node per process
    of [net]. *)
val create_cluster :
  msg Net.Network.t ->
  beta:Sim.Time.t ->
  initial_timeout:Sim.Time.t ->
  cluster

val start : cluster -> unit
val leader : cluster -> pid -> pid

(** All correct processes agree on one correct leader? *)
val agreed_leader : cluster -> pid option

(** Slowest correct process's heartbeat epoch (round analogue). *)
val min_epoch : cluster -> int

(** Suspected set of process [p] (observer for tests). *)
val suspected : cluster -> pid -> pid list
