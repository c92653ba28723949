(** Convenience wiring of one consensus instance per process over a
    dedicated network — used by tests, examples and {!Harness.Run}'s
    consensus layer (experiment E6). *)

type pid = int

type 'v t

(** [create net ~oracle ~retry_every ~crash_bound] builds one node per
    process; [oracle p] is process [p]'s leader closure (typically
    [fun () -> Omega.Node.leader omega_p]). *)
val create :
  'v Message.t Net.Network.t ->
  oracle:(pid -> unit -> pid) ->
  retry_every:Sim.Time.t ->
  crash_bound:int ->
  'v t

val start : 'v t -> unit
val propose : 'v t -> pid -> 'v -> unit
val node : 'v t -> pid -> 'v Node.t

(** Decisions of all non-crashed processes. *)
val decisions : 'v t -> (pid * 'v option) list

(** [agreement decided], over each correct process's
    [(decision, decided_at)]: the value every one decided, if they all
    decided the same, and the latest decision time (the consensus
    latency), if they all decided. Experiment E6 applies it to
    {!Harness.Run}'s layer outcomes. *)
val agreement :
  ('v option * Sim.Time.t option) list -> 'v option * Sim.Time.t option

(** [agreement]'s value over the non-crashed processes. *)
val uniform_decision : 'v t -> 'v option

(** [agreement]'s decision time over the non-crashed processes. *)
val last_decision_time : 'v t -> Sim.Time.t option
