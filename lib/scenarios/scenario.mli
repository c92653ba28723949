(** Assumption regimes, realized as network delay oracles.

    A scenario decides, per message, a transfer delay that makes the run
    satisfy (or deliberately not satisfy) one of the behavioural assumptions
    from the paper and its related work:

    - {b Full_timely}: every message timely — the strongest classical model.
    - {b T_source}: eventual t-source [ADFT04] — fixed set [Q] of [t]
      processes; from round [rn0] on, the center's ALIVE to each [q ∈ Q] is
      δ-timely.
    - {b Moving_source}: eventual t-moving source [HMSZ06] — [Q(rn)] redrawn
      every round, all timely.
    - {b Message_pattern}: [MMR03] — fixed [Q]; the center's ALIVE(rn) is
      {e winning} (among the first [n-t] ALIVE(rn) received by [q]) but its
      delay grows without bound, so no timeliness assumption holds.
    - {b Combined}: [MRT06] — fixed [Q], each point independently timely or
      winning.
    - {b Rotating_star}: the paper's [A'] — [Q(rn)] redrawn every round,
      each point independently timely or winning.
    - {b Intermittent_star}: the paper's [A] — like [Rotating_star] but only
      on an infinite round sequence [S] with gaps at most [d]; rounds outside
      [S] are unconstrained.
    - {b Growing_star}: §7's [A_{f,g}] — like [Intermittent_star] but
      δ-timeliness is relaxed to [δ + g rn] with a known growing [g].
    - {b Chaos}: no assumption at all.

    {b Unconstrained links are adversarial, not random.} With merely random
    bounded delays, adaptive timeouts eventually cover every link and every
    regime degenerates into [Full_timely]; worse, with no crashes {e any}
    frozen leader satisfies Ω, so "chaos" would not discriminate. Instead,
    rounds are cut into {e victim blocks} of growing length: in each block
    one process's ALIVE messages are delayed beyond any horizon, making it
    look crashed, and the victim rotates. Every process not protected by the
    active assumption accumulates suspicions forever, so only a genuinely
    protected center can be elected stably. The block lengths grow so that
    Figure 2's window condition cannot cap a victim's level at the block
    length. In intermittent regimes the center itself is victimized on every
    round outside [S] — the exact adversary that separates [A] from [A'].

    {b Realizing "winning".} A winning message must arrive among the first
    [n-t] round-[rn] messages at its destination. Every process sends its
    round [rn] by time [U(rn) = (rn+1)·beta] (period ≤ beta, initial offset
    < beta), so the oracle targets arrival times: the center's ALIVE(rn) is
    delivered at [U(rn) + B(rn)] (with [B] growing, hence not timely) and
    every competing ALIVE(rn) to that destination no earlier than a gap
    later. The {!Checker} verifies the promise held on the actual trace. *)

type pid = int

type mode = Timely | Winning

type regime =
  | Full_timely
  | T_source of { center : pid }
  | Moving_source of { center : pid }
  | Message_pattern of { center : pid }
  | Combined of { center : pid }
  | Rotating_star of { center : pid }
  | Intermittent_star of { center : pid; d : int }
  | Growing_star of { center : pid; d : int; g_step : Sim.Time.t }
  | Growing_gaps of { center : pid; d : int; f_step : int }
      (** §7's [f] side of [A_{f,g}]: like [Intermittent_star], but the gap
          after an S round [s] may reach [d + f_step * (s / 256)] — growing
          without bound, so no fixed window covers it. The matching window
          widener for [Fig3_fg] is {!f_function}. *)
  | Failover of { first : pid; second : pid; switch : int }
      (** A rotating star centered at [first] for rounds below [switch], at
          [second] from [switch] on — the regime for crash-the-leader
          re-election experiments: crash [first] around the switch and [A]
          still holds, with a different center. Requires [switch > rn0]. *)
  | Chaos

val regime_name : regime -> string

type params = {
  n : int;
  t : int;  (** size of the star's point set [Q] *)
  beta : Sim.Time.t;  (** must match the algorithm's ALIVE period *)
  delta : Sim.Time.t;  (** timeliness bound δ *)
  min_delay : Sim.Time.t;  (** lower bound of every link delay *)
  async_base : Sim.Time.t;  (** non-victim unconstrained delay bound at time 0 *)
  async_growth : float;
      (** optional linear growth of unconstrained delays with sim time *)
  rn0 : int;  (** the assumption holds from this round on ("eventual") *)
  order_gap : Sim.Time.t;
      (** safety margin enforcing winning arrival order *)
  victim_block0 : int;  (** rounds in the first victim block *)
  victim_block_step : int;  (** block-length growth per block *)
  victim_delay : Sim.Time.t;
      (** base delay of a victimized ALIVE (far beyond any horizon) *)
}

(** Defaults matched to {!Omega.Config.default}: δ = 2ms, min 100µs, base
    30ms, no growth, rn0 = 20, gap = beta, blocks 4+k rounds, victim delay
    1 sim-hour. *)
val default_params : n:int -> t:int -> beta:Sim.Time.t -> params

type t

(** [create params regime ~seed] fixes the whole plan (S, Q(rn), modes)
    pseudo-randomly from [seed]. Raises [Invalid_argument] if the regime
    names an out-of-range center or [params] are inconsistent. *)
val create : params -> regime -> seed:int64 -> t

val params : t -> params
val regime : t -> regime

(** The star's center, if the regime has one (the initial one for
    [Failover]). *)
val center : t -> pid option

(** The center in charge of round [rn] (differs from {!center} only after a
    [Failover] switch). *)
val center_at : t -> int -> pid option

(** {!center} / {!center_at} as pure functions of the regime, for callers
    (e.g. {!Env}) that have not instantiated a scenario. *)
val center_of_regime : regime -> pid option

val center_at_round : regime -> int -> pid option

(** [set_victim_override t p] redirects the adversary at process [p]: from
    now on [p]'s ALIVEs are victim-delayed to every receiver and the block
    rotation is suspended, until [set_victim_override t (-1)] restores it.
    The assumption's protected arms are untouched — a timely or winning
    star point of the center stays timely or winning even when the center
    is the target — so an adaptive adversary ({!Fault.Injector}) can chase
    leaders without ever violating the regime's promise. Raises
    [Invalid_argument] unless [-1 <= p < n]. *)
val set_victim_override : t -> pid -> unit

(** Current override, [-1] when the block rotation is in force. *)
val victim_override : t -> pid

(** Is round [rn] in the constrained sequence [S]? (True for every
    [rn >= rn0] in non-intermittent regimes.) *)
val in_s : t -> int -> bool

(** The witness [Q(rn)] with per-point modes; [[]] if [rn] is outside [S] or
    the regime has no star. *)
val q_set : t -> int -> (pid * mode) list

(** The [g] function of a [Growing_star] regime ([fun _ -> 0] otherwise),
    to hand to [Fig3_fg]. *)
val g_function : t -> int -> Sim.Time.t

(** The window widener [f] of a [Growing_gaps] regime ([fun _ -> 0]
    otherwise), to hand to [Fig3_fg]; conservative: at least the regime's
    per-round gap bound. *)
val f_function : t -> int -> int

(** [oracle_us t ~round_of] is the delay oracle to plug into a
    {!Net.Spec} ({!Net.Spec.with_oracle_us}), in microseconds — scenario
    oracles never drop. [round_of m] must return the message's round when
    [m] is a round-tagged, assumption-constrained message (an ALIVE), or
    [-1] when it is unconstrained. Its jitter stream is the
    {e executor}'s ([at] — the sender on the direct path, the relay on a
    routed hop), so the draw sequence is a function of each process's
    local computation. *)
val oracle_us : t -> round_of:('m -> int) -> 'm Net.Network.delay_oracle_us

(** [arrival_bound t rn] is an upper bound on the arrival time of any
    round-[rn] ALIVE that is not victim-delayed, across all delay policies.
    Harnesses use it to pick the checker's verification horizon: every round
    whose bound lies before the run's end has fully arrived.

    [hops] (default 1) is the network diameter on routed topologies: every
    hop draws its own delay from the oracle, so the worst case multiplies.
    The bound is monotone in [rn] for every fixed [hops] (the property
    test pins this) and monotone in [hops]. *)
val arrival_bound : ?hops:int -> t -> int -> Sim.Time.t

(** Certified lower bound, in µs, on every delay this scenario's oracles
    can return (= [min_delay]; every delay policy floors at it, and the
    qcheck property test pins that). The intra-run parallel driver's
    conservative window is the [min] of this and the network's
    {!Net.Network.channel_floor_us} (DESIGN.md §18). *)
val lookahead_us : t -> int

(** [round_of] for the core algorithm's messages: the round of an ALIVE
    (and of the relay tier's HEARTBEAT/AGGREGATE), [-1] otherwise. *)
val round_rn_of_omega : Omega.Message.t -> int

val describe : t -> string
