(** Deciding whether a sampled run stabilized — {!Run}'s judgment,
    extracted as a pure function so the tricky cases (quadratic
    slow-down, one-block lulls) are unit-testable.

    A run counts as stabilized when its samples end in a suffix with one
    constant agreed leader that spans
    - at least a third of all receiving rounds (and at least [min_rounds]):
      an unbounded-timeout algorithm outside its assumption slows down
      quadratically, so its ever-rarer leader changes would look stable on
      any fixed {e time} window — rounds are the honest clock; and
    - at least [min_window] of wall time before the horizon: guards against
      sampling artifacts at the very end of a run. *)

type sample = { time : Sim.Time.t; round : int; agreed : int option }

type verdict = {
  stabilized_at : Sim.Time.t option;
      (** start of the qualifying suffix, if any *)
  final_leader : int option;  (** agreed leader at the horizon, if any *)
}

(** [judge ~horizon ~min_window ?min_rounds samples] — [samples] in
    chronological order. [min_rounds] defaults to 40. *)
val judge :
  horizon:Sim.Time.t ->
  min_window:Sim.Time.t ->
  ?min_rounds:int ->
  sample list ->
  verdict
