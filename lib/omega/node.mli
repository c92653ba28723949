(** One process of the leader algorithm (Figures 1, 2, 3 and the [A_{f,g}]
    variant of §7), driven by the discrete-event engine.

    Line-by-line mapping to Figure 3 of the paper (the supersets Figure 1 and
    Figure 2 are obtained by disabling the [*] / [**] conditions through
    {!Config.variant}):

    - init: [rec_from.(rn) = {i}] for every rn (the round store's default),
      [suspicions.(rn).(j) = 0], [s_rn = 0], [r_rn = 1], timer armed.
    - lines 1-3 (task T1): every at-most-[beta] units, [s_rn <- s_rn + 1] and
      broadcast [ALIVE (s_rn, susp_level)] to every other process.
    - lines 4-7: on [ALIVE (rn, sl)], merge [sl] into [susp_level] by
      pointwise max; if [rn >= r_rn], add the sender to [rec_from.(rn)].
    - lines 8-12: when the timer has expired {e and} [|rec_from.(r_rn)| >=
      alpha]: broadcast [SUSPICION (r_rn, Pi \ rec_from.(r_rn))] to every
      process (itself included — line 10 has no [j <> i] filter, unlike
      line 3), re-arm the timer from [max_j susp_level.(j)], and move to
      receiving round [r_rn + 1].
    - lines 13-18: on [SUSPICION (rn, suspects)], for each [k] in [suspects]
      increment [suspicions.(rn).(k)]; raise [susp_level.(k)] by one iff
      [suspicions.(rn).(k) >= alpha] {e and} (line [*], Figures 2-3) every
      [x] in [[rn - susp_level.(k) - f rn, rn]] already reached [alpha]
      {e and} (line [**], Figure 3) [susp_level.(k)] is currently minimal.
    - lines 19-21: [leader ()] is the lexicographically least
      [(susp_level.(j), j)].

    Unbounded round-indexed state is pruned once out of reach; see
    DESIGN.md §2 and {!Dstruct.Rounds}. *)

type pid = int

(** How the node reaches its peers. Decoupled from {!Net.Network} so the
    algorithm also runs over the fair-lossy + retransmission stack of the
    paper's footnote 2 ({!Net.Retransmit}). *)
type transport = {
  engine : Sim.Engine.t;
  n : int;
  send : dst:pid -> Message.t -> unit;
  halted : unit -> bool;  (** has this process crashed? *)
}

type t

(** [create cfg net ~me] allocates the node and registers its receive handler
    on [net]. Call {!start} to begin the sending task and arm the timer.
    [?store] is the cluster-shared struct-of-arrays backing for the hot
    per-node state ({!Store}); omitted, the node allocates a private one.
    Network-backed nodes broadcast through {!Net.Network.broadcast} /
    {!Net.Network.broadcast_all}. *)
val create : ?store:Store.t -> Config.t -> Message.t Net.Network.t -> me:pid -> t

(** [create_with_transport cfg tr ~me] is {!create} over an arbitrary
    transport; the caller must route incoming messages to {!handle}.
    Broadcasts fall back to a per-destination [tr.send] loop. *)
val create_with_transport :
  ?store:Store.t -> Config.t -> transport -> me:pid -> t

(** The direct transport {!create} uses. *)
val network_transport : Message.t Net.Network.t -> me:pid -> transport

(** Deliver an incoming message (only needed with
    {!create_with_transport}). *)
val handle : t -> src:pid -> Message.t -> unit

(** Schedules the first ALIVE broadcast and arms the initial timer. *)
val start : t -> unit

(** [recover t] rejoins a crashed process with its persisted state (the
    paper's crash–recovery discussion, §1.3): [susp_level], sending round
    and suspicion history all survive untouched. Two recovery rules keep the
    algorithm live: (1) the stale receiving round can never close again
    (line 8 needs [alpha] ALIVEs tagged with it, and the correct processes
    have moved on), so the node re-seats [r_rn] at the first live round an
    incoming ALIVE exhibits; (2) the previous incarnation's sending task is
    retired by an epoch counter, so a pre-crash pending event cannot
    duplicate the loop this call restarts. The caller must un-crash the
    transport first ({!Net.Network.recover}), as {!Cluster.iface}'s
    [recover] does. *)
val recover : t -> unit

(** [resync t] applies recovery rule (1) alone — re-seat the receiving round
    at the next live round an incoming ALIVE exhibits — to a process that
    never crashed. A partition survivor needs it: ALIVEs tagged with rounds
    sent while its links were cut are gone for good, so once its (buffered)
    receiving round reaches that gap, line 8's quorum is unreachable forever.
    The fault injector calls this on heal for every process whose group was
    too small to retain an [alpha]-quorum; plan-free runs never reach it. *)
val resync : t -> unit

(** Line 19-21: the current leader estimate. *)
val leader : t -> pid

val me : t -> pid
val config : t -> Config.t

(** {2 Introspection (observers used by tests and experiments)} *)

(** Copy of the suspicion-level array (Θ(n) — test/debug use). *)
val susp_level : t -> int array

(** [susp_level_get t k] is [susp_level.(k)] without the copy: the O(1)
    read-only view samplers and checkers should take every verification
    step. *)
val susp_level_get : t -> pid -> int

(** Current sending round. *)
val sending_round : t -> int

(** Current receiving round. *)
val receiving_round : t -> int

(** Largest timeout armed so far. *)
val max_timeout_armed : t -> Sim.Time.t

(** Largest value ever held by any [susp_level] entry. *)
val max_susp_level_seen : t -> int

(** Number of times line 17 executed ([susp_level] increments other than
    gossip merges). *)
val local_increments : t -> int

(** Lemma 8 invariant for Figure 3: [max susp_level - min susp_level <= 1].
    Always true for Fig3/Fig3_fg; meaningless (often false) for Fig1/Fig2. *)
val lattice_invariant_holds : t -> bool

(** Live entries in the round-indexed stores (bounded iff pruning works).
    This is the {e logical} count: the collapsed-full prefix (DESIGN.md
    §16) is counted as if its rounds were still present, so the number
    measures the algorithm's window, not the representation. *)
val round_state_cardinal : t -> int

(** Table entries {e physically} retained — the collapsed-full prefix
    excluded. Under the default config the sending frontier outruns the
    receiving round without bound; in a timely run the buffered rounds
    are all fully received and collapse, so this stays O(jitter spread)
    over arbitrarily long runs while {!round_state_cardinal} reports the
    frontier gap. The memory regression test pins it. *)
val retained_round_entries : t -> int
