(** Trace checker: verifies that a finished run actually satisfied the
    assumption the scenario promised.

    Register {!sink} on the engine (typically under {!Obs.Sink.tee}) before
    the run; afterwards {!verify} replays the witness: for every round
    [s ∈ S] up to a horizon and every point [q ∈ Q(s)], property A2 must
    hold — [q] crashed, or the center's ALIVE(s) was received by [q] within
    [δ + g s] of its sending, or among the first [n − t] ALIVE(s) messages
    [q] received.

    The checker consumes the typed {!Obs.Event} stream: [Deliver] events
    with [round >= 0], which by the classifier contract (the network's
    [classify], e.g. {!Omega.Message.info}) are exactly the messages the
    assumption constrains. It is therefore message-type agnostic — any
    algorithm whose classifier tags its assumption-bearing messages can be
    checked. The verification horizon is still chosen by the caller from
    {!Scenario.arrival_bound} (see [Harness.Run.checkable_round]).

    This closes the loop on experiment honesty: E1/E2/E7's "the assumption
    held" is a checked fact about the trace, not a property we hope the
    delay oracle implements. *)

type pid = int

type violation = {
  rn : int;
  q : pid;
  detail : string;  (** human-readable reason A2 failed at (rn, q) *)
}

type report = {
  rounds_checked : int;  (** rounds of S in the verified window *)
  points_checked : int;  (** (rn, q) pairs examined *)
  points_timely : int;  (** satisfied via A2(2) *)
  points_winning : int;  (** satisfied via A2(3) but not A2(2) *)
  points_crashed : int;  (** satisfied via A2(1) *)
  points_skipped : int;  (** not judgeable (round incomplete at horizon) *)
  rounds_masked : int;  (** excused by the caller's [masked] predicate *)
  violations : violation list;
}

type t

val create : Scenario.t -> t

(** Record one event; {!sink} packages this for {!Sim.Engine.set_sink}. *)
val on_event : t -> Obs.Event.t -> unit

(** A sink with mask {!Obs.Event.c_net} feeding {!on_event}, with a
    scalar lane that records deliveries from their fields and ignores the
    other per-message kinds, so a checked run builds no event records for
    the checker. *)
val sink : t -> Obs.Sink.t

(** [verify t ~upto_round ~crashed] checks every [s ∈ S] with
    [rn0 <= s <= upto_round]. [crashed q] must say whether [q] crashed
    during the run. [masked rn] (default: never) excuses round [rn]
    entirely — used by fault plans for rounds whose messages could be in
    flight during a partition or crash–recovery window, when the
    assumption's promise is deliberately suspended (see
    [Harness.Run]). Masked rounds are counted in [rounds_masked].

    [stretch] (default 1) scales the timeliness bound to
    [stretch * (δ + g s)]: on a routed topology each hop draws its own
    timely delay, so the harness passes the network diameter. *)
val verify :
  ?masked:(int -> bool) ->
  ?stretch:int ->
  t ->
  upto_round:int ->
  crashed:(pid -> bool) ->
  report
