(** Plain-text table rendering for experiment output. *)

(** [print ~title ~header rows] renders an aligned ASCII table to stdout. *)
val print : title:string -> header:string list -> string list list -> unit

(** Cell helpers. *)
val ms : float -> string
(** "123.4ms", or "-" for nan (never stabilized). *)

val yesno : bool -> string
val intc : int -> string

(** One per-row wall-clock line for stderr: machine time is
    nondeterministic, so it must never reach the (byte-diffed) stdout
    tables. *)
val wall : string -> float -> string
