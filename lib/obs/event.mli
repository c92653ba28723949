(** Typed simulation events.

    One monomorphic variant covers every layer of the stack — engine
    scheduling, network traffic, the Omega rounds/suspicions/leadership, and
    consensus ballots — so sinks (counters, JSONL writers, digests, the
    scenario checker) can consume a single stream without knowing message
    types. Times are raw {!Sim.Time} microsecond ints: [Obs] sits below
    [Sim] in the dependency order, because the engine itself emits events.

    Polymorphic network messages are projected into a {!msg_info} by a
    per-network classifier (see {!Net.Spec.with_classify}): a static [kind]
    string, the assumption-relevant round ([-1] when none — the same
    convention as [round_of] returning [None]), and the wire size. *)

type msg_info = { kind : string; round : int; bytes : int }

(** [{kind = "msg"; round = -1; bytes = 0}] — the default classifier. *)
val no_info : msg_info

type t =
  | Sched of { now : int; at : int }  (** engine: event scheduled *)
  | Fire of { now : int }  (** engine: event executed *)
  | Cancel of { now : int }  (** engine: live event cancelled *)
  | Timer_fire of { now : int }  (** a {!Sim.Timer} expired *)
  | Send of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Deliver of {
      now : int;
      sent_at : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Drop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
  | Duplicate of { now : int; src : int; dst : int; seq : int }
      (** retransmission layer: an already-delivered payload arrived again *)
  | Round_open of { now : int; pid : int; rn : int }
  | Round_close of { now : int; pid : int; rn : int; suspected : int }
  | Suspicion of { now : int; pid : int; target : int; level : int }
      (** [pid]'s suspicion level for [target] rose to [level] (local
          increment or adoption from a received ALIVE) *)
  | Leader_change of { now : int; pid : int; leader : int }
  | Ballot_open of { now : int; pid : int; ballot : int }
  | Decided of { now : int; pid : int; ballot : int }
      (** [ballot = -1] when learned from a DECIDE relay *)
  | Partition of { now : int; groups : int }
      (** fault plan: the partition in force changed; [groups] is the number
          of connectivity groups ([1] = fully healed) *)
  | Recover of { now : int; pid : int }
      (** fault plan: a crashed process rejoined with its persisted state *)
  | Adversary_move of { now : int; target : int }
      (** the adaptive adversary re-targeted its victim blocks at [target] *)
  | Relay_round of { now : int; pid : int; rn : int; stale : int }
      (** communication-efficient variant: relay [pid] aggregated and
          re-broadcast suspicion state for its heartbeat round [rn],
          having found [stale] processes past their staleness slack *)
  | Accusation of { now : int; pid : int; target : int; level : int }
      (** communication-efficient variant: [pid] broadcast an accusation
          against its silent relay [target] at suspicion [level] *)
  | Hop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      via : int;
      kind : string;
      round : int;
      bytes : int;
    }
      (** routed topology: message [seq] on its way [src]->[dst] was
          forwarded by the intermediate relay [via] *)
  | Link_drop of {
      now : int;
      seq : int;
      src : int;
      dst : int;
      hop_src : int;
      hop_dst : int;
      kind : string;
      round : int;
      bytes : int;
    }
      (** routed topology: message [seq] ([src]->[dst] end to end) was lost
          on the hop [hop_src]->[hop_dst] — edge cut, fair-lossy coin, no
          route, or a crashed relay ([hop_src = hop_dst] for the last two) *)
  | Edge_fault of { now : int; a : int; b : int; state : int }
      (** fault plan: the undirected edge [a]<->[b] changed state
          ([0] cut, [1] healed, [2] degraded, [3] degradation lifted) *)
  | Rack_fault of { now : int; rack : int; state : int }
      (** fault plan: every edge crossing the boundary of [rack] was cut
          ([state = 0]) or healed ([state = 1]) *)

(** {2 Event classes}

    Emission sites guard on [Sink.wants sink class]: a sink's mask says
    which classes it consumes, and unwanted events are never allocated. *)

val c_engine : int

val c_timer : int
val c_net : int
val c_omega : int
val c_consensus : int
val c_fault : int

(** Union of every class. *)
val all : int

val class_of : t -> int

(** Stable lowercase name, also the ["ev"] field of {!to_json}. *)
val name : t -> string

(** Stable small int identifying the constructor; the digest folds it.
    Append-only: renumbering silently changes every pinned digest. *)
val tag : t -> int

(** [tag (Send _)], [tag (Deliver _)], [tag (Drop _)], [tag (Hop _)] and
    [tag (Link_drop _)] as constants, for scalar-lane consumers that have
    the fields but no event value. *)
val tag_send : int

val tag_deliver : int
val tag_drop : int
val tag_hop : int
val tag_link_drop : int

(** Append the event as one JSON object (no trailing newline). *)
val to_json : Buffer.t -> t -> unit
