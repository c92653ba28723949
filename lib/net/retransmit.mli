(** Reliable channels over fair-lossy links — the construction of the
    paper's footnote 2: "a message is piggybacked on the next messages until
    it has been acknowledged".

    Per directed link, the sender numbers messages and keeps them in an
    unacknowledged queue; every wire envelope carries the whole queue (the
    piggyback) plus a cumulative acknowledgment of the reverse direction.
    A periodic retransmission task re-sends non-empty queues, so any fair-
    lossy link (infinitely many deliveries) yields exactly-once, in-order
    delivery of every payload between non-crashed processes.

    The layer owns an internal envelope-typed {!Network} built from the
    given oracle (typically over per-edge {!Topology.Fair_lossy}
    [channels]), and exposes the same send/handler surface as
    {!Network}, so transport-generic protocols (e.g. {!Consensus.Node})
    run over it unchanged. *)

type pid = int

(** Wire envelope (exposed for tests and size accounting). *)
type 'm envelope = {
  first_seq : int;  (** sequence number of the first queued payload *)
  payloads : 'm list;  (** the sender's whole unacknowledged queue *)
  ack : int;  (** cumulative ack: all reverse-direction seq < ack received *)
}

type 'm t

(** [create engine ~n ~oracle ~resend_every] builds the layer and its
    internal network.

    [max_pending] (default 256) bounds each directed link's unacknowledged
    queue: once full — as happens under a long partition, when the peer acks
    nothing — further [send]s on that link refuse the {e new} payload and
    count it in {!shed} instead of queueing. Refusing the newest (rather
    than evicting the oldest) keeps the queue a contiguous seq range, which
    the receiver's in-order cursor requires; shed payloads are simply lost,
    as on any fair-lossy link, and callers that need them re-offer.

    [topology] / [channels] configure the internal network's graph and
    per-edge reliability classes (see {!Network.Spec}): the canonical use
    is per-edge {!Topology.Fair_lossy} channels under this layer, which
    then delivers exactly-once in-order anyway — the footnote's point. *)
val create :
  ?max_pending:int ->
  ?topology:Topology.kind ->
  ?channels:(src:pid -> dst:pid -> Topology.channel) ->
  Sim.Engine.t ->
  n:int ->
  oracle:'m envelope Network.delay_oracle_us ->
  resend_every:Sim.Time.t ->
  'm t

(** Starts the per-process retransmission tasks. *)
val start : 'm t -> unit

val send : 'm t -> src:pid -> dst:pid -> 'm -> unit
val set_handler : 'm t -> pid -> (src:pid -> 'm -> unit) -> unit
val crash : 'm t -> pid -> unit
val is_crashed : 'm t -> pid -> bool

(** Partition the internal network (see {!Network.set_partition}). The
    retransmission tasks keep running, so queued payloads flow again as
    soon as the partition heals. *)
val set_partition : 'm t -> int array option -> unit

(** Envelopes put on the wire (including retransmissions). *)
val wire_sends : 'm t -> int

(** Payloads delivered to handlers (each exactly once). *)
val delivered : 'm t -> int

(** Current total backlog of unacknowledged payloads (boundedness probe). *)
val backlog : 'm t -> int

(** Payloads refused because their link's queue was at [max_pending]. *)
val shed : 'm t -> int
