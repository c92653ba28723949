(** Simulated message-passing network.

    Matches the paper's model (§2.1): every ordered pair of processes is
    connected by a directed link; links are reliable (no creation, alteration
    or loss) and non-FIFO, with no bound on transfer delays. Delays come from
    a {!delay_oracle_us}, which is where scenario generators inject
    timeliness, winning order, or chaos. The fair-lossy links of the
    paper's footnote 2 are a per-edge channel class
    ({!Topology.Fair_lossy}), composed before the oracle; an oracle may
    also drop a message by returning a negative delay.

    Crash faults: a crashed process neither sends nor receives from the crash
    time on (its handler is never invoked again), which is exactly premature
    halting.

    Beyond the paper's model, a network can be built over a {!Topology}
    (with per-edge {!Topology.channel} classes): sends are then routed hop
    by hop over precomputed shortest paths, each hop drawing its own delay
    from the oracle. The complete default is observationally identical to
    the historical direct-dispatch network. See DESIGN.md §17. *)

type pid = int

(** The delay oracle: the transfer delay in microseconds, any negative
    value meaning drop. It sees the send time, the link and the message,
    the sender's per-source sequence number ([seqs.(src)]-th send of
    [src]) for tie-breaking, and [at], the {e executor} performing the
    draw: the sender on the direct path, the relaying node on a routed
    hop. Oracles that draw randomness must key their streams on [at] (one
    sub-stream per executor) so the draw sequence is a pure function of
    each process's local computation — the interleaving-invariance the
    intra-run parallel mode relies on (DESIGN.md §18). The per-message
    call returns a plain [int], so it allocates nothing. *)
type 'm delay_oracle_us =
  now:Sim.Time.t -> seq:int -> at:pid -> src:pid -> dst:pid -> 'm -> int

type 'm t

(** The construction spec, a builder record mirroring [Run.Spec]:

    {[
      Net.Spec.default
      |> Net.Spec.with_oracle_us oracle_us
      |> Net.Spec.with_topology Net.Topology.Ring
      |> Net.Spec.with_classify classify
      |> fun spec -> Net.Network.of_spec spec engine ~n
    ]}

    (Also exposed as {!Net.Spec} at the library level.) Field semantics:

    - [with_classify] projects a message into the monomorphic
      {!Obs.Event.msg_info} carried by net events on the engine's sink
      (see {!Sim.Engine.set_sink}): a static kind string, the
      assumption-relevant round ([-1] when none — the {!Scenarios.Checker}
      keys on it), and the wire size. Default {!Obs.Event.no_info}; only
      invoked when a sink wants [c_net] events.
    - [with_oracle_us] sets the delay oracle; it is required.
    - [with_topology] (default {!Topology.Complete}) selects the graph.
      Non-complete kinds route every send hop by hop over precomputed
      shortest paths (see {!Topology} and DESIGN.md §17); the complete
      default is the paper's model and keeps the legacy direct-dispatch
      path, bit for bit.
    - [with_channels] assigns a {!Topology.channel} class to every
      directed edge (consulted once per ordered pair at construction).
      Channel classes compose {e before} the delay oracle the way
      partitions cut traffic: a fair-lossy hop drops without drawing
      delay randomness, an eventually-timely hop clamps the oracle's
      delay to its bound once [now >= gst]. Giving channels — even all
      [Reliable] — selects the routed path.

    In-flight message records are always recycled through a
    network-local freelist: a delivery latches its fields and releases
    the record before invoking the handler, so steady-state traffic
    allocates no flight records at all. The freelist is network-local
    state like the handlers: never share a network across parallel pool
    tasks. *)
module Spec : sig
  type 'm t

  val default : 'm t
  val with_classify : ('m -> Obs.Event.msg_info) -> 'm t -> 'm t
  val with_oracle_us : 'm delay_oracle_us -> 'm t -> 'm t
  val with_topology : Topology.kind -> 'm t -> 'm t

  val with_channels :
    (src:pid -> dst:pid -> Topology.channel) -> 'm t -> 'm t
end

(** [of_spec spec engine ~n] is a network for processes [0 .. n-1].
    Raises [Invalid_argument] if [spec] carries no oracle, if the
    topology is not connected, or if some edge is [Fair_lossy p] with [p]
    outside [[0, 1)] (NaN included). A non-complete topology
    splits its routing-table stream off the engine seed (and a second
    stream for fair-lossy coins when some edge needs one); the complete
    reliable default splits nothing, so legacy digests are unchanged. *)
val of_spec : 'm Spec.t -> Sim.Engine.t -> n:int -> 'm t

val n : 'm t -> int
val engine : 'm t -> Sim.Engine.t

(** [set_handler t i f] installs the receive handler of process [i]. *)
val set_handler : 'm t -> pid -> (src:pid -> 'm -> unit) -> unit

(** [send t ~src ~dst m] sends [m] on link [src -> dst]. No-op if [src] has
    crashed. Self-sends are delivered through the oracle like any other. *)
val send : 'm t -> src:pid -> dst:pid -> 'm -> unit

(** [broadcast t ~src m] sends [m] to every process except [src] (the
    algorithms in the paper send "to each j <> i"), in destination order.
    It is observably identical to a loop of {!send}s; the clock, the sink
    and the message's classification are read once for the whole
    fan-out. *)
val broadcast : 'm t -> src:pid -> 'm -> unit

(** [broadcast_all t ~src m] is {!broadcast} including the self-send —
    line 10 of the paper's Figure 3 has no [j <> i] filter. *)
val broadcast_all : 'm t -> src:pid -> 'm -> unit

(** [crash t i] halts process [i] immediately. A crashed process neither
    sends nor receives until (and unless) {!recover} is called. *)
val crash : 'm t -> pid -> unit

(** [recover t i] lets a crashed process send and receive again. Messages
    consumed while it was down stay lost (the paper's crash–recovery
    discussion: only persisted process state survives, not the link). *)
val recover : 'm t -> pid -> unit

val is_crashed : 'm t -> pid -> bool

(** [set_partition t (Some groups)] cuts every link whose endpoints are in
    different connectivity groups ([Array.length groups] must be [n]);
    messages on cut links are dropped {e before} the delay oracle runs, so
    no delay randomness is drawn for them. [set_partition t None] heals.
    In-flight messages scheduled before the cut still arrive (links lose
    messages, they do not destroy ones already travelling). *)
val set_partition : 'm t -> int array option -> unit

(** [set_dup_burst t ~until ~extra] makes every send with [now < until]
    deliver twice, the duplicate [extra] after the original — the fair-lossy
    model's "finite duplication" exercised en masse (see {!Retransmit}).
    On a routed network the duplicate travels as its own flight with
    [extra] added to its first hop. *)
val set_dup_burst : 'm t -> until:Sim.Time.t -> extra:Sim.Time.t -> unit

(** [set_edge_cut t ~a ~b on] cuts (or heals) the undirected edge
    [a]<->[b]: messages attempting that hop are dropped before the delay
    oracle runs, exactly like a partition boundary. On the complete graph
    this cuts the direct link; on a routed topology it cuts the physical
    edge, so every route through it. Routing tables are NOT recomputed —
    faults cut traffic, not the map (the paper's model repairs links, it
    does not re-plan around them). *)
val set_edge_cut : 'm t -> a:pid -> b:pid -> bool -> unit

(** [set_edge_degrade t ~a ~b ~extra_us] adds [extra_us] to every delay
    the oracle assigns across [a]<->[b] (both directions); [0] restores.
    Applied after the oracle (and after any eventually-timely clamp), so a
    degraded edge can exceed channel bounds — that is the fault. *)
val set_edge_degrade : 'm t -> a:pid -> b:pid -> extra_us:int -> unit

(** [set_rack_cut t ~rack on] cuts (or heals) every edge with exactly one
    endpoint in [rack] — isolating one rack/LAN of a {!Topology.Fat_tree}
    or {!Topology.Wan_of_lans}. Raises [Invalid_argument] on topologies
    without racks. *)
val set_rack_cut : 'm t -> rack:int -> bool -> unit

(** Ids of processes that have not crashed. *)
val correct : 'm t -> pid list

(** Always-on counters (cheap ints, independent of any sink). For event
    streams — per-kind counters, traces, digests — install an {!Obs.Sink}
    on the engine instead. *)
val sent_count : 'm t -> int

val delivered_count : 'm t -> int
val dropped_count : 'm t -> int

(** The topology the network was built with ({!Topology.complete} for the
    default), and its diameter — the multi-hop stretch factor the checker
    and {!Scenarios.Scenario.arrival_bound} apply on routed runs. *)
val topology : 'm t -> Topology.t

val diameter : 'm t -> int

(** {2 Intra-run sharded execution (DESIGN.md §18)}

    A conservative-window parallel run keeps one full network replica per
    shard (plus a control replica for the fault injector), all built from
    the same seed so their derived streams coincide. Each replica routes
    events for processes it owns through the normal local path; an event
    whose {e executor} (delivery target on the direct path, next hop on a
    routed one) lives on another shard is stamped with its canonical
    identity ({!Sim.Engine.stamp_key}) and appended, allocation-free, to
    this replica's outbox for the target shard. At a barrier {!seal}
    hands every outbox over; the owning shard then {!drain_sealed}s its
    inbox on its own domain at the start of its next window. Outboxes
    keep creation order and are never reordered: equal keys come from
    one replica and so sit in ascending creation index, which is what
    {!Sim.Engine.enqueue_committed} requires. All of this is inert until
    {!set_sharding}: sequential networks never touch the shard map. *)

(** [set_sharding t ~my_shard ~shard_of ~shards] turns on sharded dispatch
    for this replica: [shard_of.(pid)] is the owning shard of each process,
    [my_shard] this replica's index ([-1] for the control replica, which
    owns no process). *)
val set_sharding : 'm t -> my_shard:int -> shard_of:int array -> shards:int -> unit

(** [link_siblings nets] registers every replica of one run (shards and
    control) with every other: fault mutators ({!crash}, {!set_partition},
    {!set_edge_cut}, …) then apply to all replicas at once, keeping link
    state in lockstep, and a shard drains its inbox from every replica.
    Mutators only ever run at barriers on the main domain, so no
    synchronisation is involved. *)
val link_siblings : 'm t array -> unit

(** [seal t] hands over every creation this replica buffered since the
    last seal — one pointer swap per target shard. If a target has not
    drained the previous seal yet, the new creations are appended behind
    it, keeping creation order. Call at a barrier, on the main domain. *)
val seal : 'm t -> unit

(** [sealed_min_key t] is the smallest key sealed for [t]'s shard by any
    replica and not yet drained, or [-1] when there is none. A window
    bound must include it: those arrivals are pending events of the
    shard that its engine does not hold yet. *)
val sealed_min_key : 'm t -> int

(** [drain_sealed t] materializes every creation sealed for [t]'s shard,
    replica by replica in creation order — flights come from [t]'s pool
    and are enqueued silently with {!Sim.Engine.enqueue_committed} — and
    empties those sealed outboxes. Call it from the domain that runs
    [t]'s shard, before that shard's window runs. *)
val drain_sealed : 'm t -> unit

(** The smallest delay a channel class can impose on a hop of this
    network — an eventually-timely clamp can pull any oracle delay down
    to its bound, so the certified cross-shard lookahead must not exceed
    the smallest such bound. [max_int] when no channel can shrink a
    delay. *)
val channel_floor_us : 'm t -> int
