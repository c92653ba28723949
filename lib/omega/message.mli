(** Messages of the leader algorithms.

    The Figure-1/2/3 family uses two kinds: the assumption [A] constrains
    ALIVE messages exclusively, SUSPICION messages are entirely
    asynchronous. Except for the round number, every field has a finite
    domain — the property §6 of the paper establishes and experiment E5
    measures.

    The communication-efficient variant ({!Lean}, DESIGN.md §15) adds
    three kinds: point-to-point HEARTBEATs to the current relay, the
    relay's aggregated AGGREGATE broadcast, and ACCUSE broadcasts against
    a silent relay. HEARTBEAT and AGGREGATE carry the sender's heartbeat
    round and are the messages the adversary's round-tagged delay policies
    apply to ({!Scenarios.Scenario.round_rn_of_omega}); ACCUSE is
    asynchronous control traffic like SUSPICION. *)

type pid = int

type t =
  | Alive of { rn : int; susp_level : int array }
      (** Heartbeat of sending round [rn], gossiping the sender's whole
          suspicion-level array (line 3). *)
  | Suspicion of { rn : int; suspects : pid list }
      (** "These processes never completed receiving round [rn] for me"
          (line 10). *)
  | Heartbeat of { rn : int }
      (** Lean variant: "I am alive at heartbeat round [rn]", sent only to
          the sender's current relay (leader estimate). *)
  | Aggregate of { rn : int; levels : int array }
      (** Lean variant: the relay's aggregated suspicion-level vector,
          broadcast once per heartbeat round — the interned copy-on-write
          payload discipline of ALIVE applies. *)
  | Accuse of { rn : int; target : pid; level : int }
      (** Lean variant: "relay [target] went silent on me; my level for it
          is now [level]" — how suspicion of a failed relay spreads when
          there is no relay to aggregate it. *)

(** Round number carried by a message. *)
val round : t -> int

val is_alive : t -> bool

(** Serialized size in bytes under a simple binary encoding (4-byte ints,
    1-byte tag); used by experiment E5 for cost accounting. *)
val wire_size : t -> int

(** Classifier for {!Net.Spec.with_classify}: kind
    ["alive"]/["susp"]/["hb"]/["agg"]/["accuse"], [round = rn] for ALIVE
    only (the checker's convention, matching
    {!Scenarios.Scenario.round_rn_of_omega}), [bytes = wire_size]. *)
val info : t -> Obs.Event.msg_info

val pp : Format.formatter -> t -> unit
