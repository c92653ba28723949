(** Event sinks.

    A sink is a mask of event classes it wants plus an [emit] function.
    The contract that keeps the disabled path free: producers must guard

    {[
      if Obs.Sink.wants sink Obs.Event.c_net then
        Obs.Sink.emit sink (Obs.Event.Send { ... })
    ]}

    so when the mask bit is clear (in particular for {!null}) the cost is a
    single branch and the event is never allocated.

    {2 Scalar fast lane}

    Send/Deliver/Drop are emitted once per simulated message and dominate a
    traced run. A sink that only folds their fields (the digest, the
    checker) can declare a {!scalar} implementation; producers that emit
    through {!emit_send} / {!emit_deliver} / {!emit_drop} then pass the
    fields directly and never allocate the event record. Sinks without a
    scalar lane (JSONL, the harness's wire-byte counter) observe the
    exact same stream — the helpers build the event for them on demand. *)

type t

(** Direct field consumers for the three per-message event kinds. The
    [Event.msg_info] argument carries [kind]/[round]/[bytes] exactly as the
    corresponding event constructor would. *)
type scalar = {
  s_send :
    now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit;
  s_deliver :
    now:int ->
    sent_at:int ->
    seq:int ->
    src:int ->
    dst:int ->
    Event.msg_info ->
    unit;
  s_drop :
    now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit;
  s_hop :
    now:int ->
    seq:int ->
    src:int ->
    dst:int ->
    via:int ->
    Event.msg_info ->
    unit;
  s_link_drop :
    now:int ->
    seq:int ->
    src:int ->
    dst:int ->
    hop_src:int ->
    hop_dst:int ->
    Event.msg_info ->
    unit;
}

(** Mask [0]: wants nothing, [emit] is [ignore]. The default everywhere. *)
val null : t

(** [make ?scalar ~mask f] is a sink consuming the classes in [mask] with
    [f]. If [scalar] is given, it MUST fold Send/Deliver/Drop identically
    to [f] — producers choose either lane per emission site. *)
val make : ?scalar:scalar -> mask:int -> (Event.t -> unit) -> t

(** [wants t c] — does [t]'s mask intersect class [c]? O(1), no alloc. *)
val wants : t -> int -> bool

(** Unconditional dispatch; call only under a [wants] guard. *)
val emit : t -> Event.t -> unit

(** Fast-lane emission of a Send event: dispatches fields to the scalar
    lane when [t] has one, otherwise builds the event and calls [emit].
    Call only under a [wants t Event.c_net] guard. *)
val emit_send :
  t -> now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit

val emit_deliver :
  t ->
  now:int ->
  sent_at:int ->
  seq:int ->
  src:int ->
  dst:int ->
  Event.msg_info ->
  unit

val emit_drop :
  t -> now:int -> seq:int -> src:int -> dst:int -> Event.msg_info -> unit

(** Fast-lane emission of the per-hop routed-topology events (Hop and
    Link_drop), same contract as {!emit_send}: call only under a
    [wants t Event.c_net] guard. *)
val emit_hop :
  t ->
  now:int ->
  seq:int ->
  src:int ->
  dst:int ->
  via:int ->
  Event.msg_info ->
  unit

val emit_link_drop :
  t ->
  now:int ->
  seq:int ->
  src:int ->
  dst:int ->
  hop_src:int ->
  hop_dst:int ->
  Event.msg_info ->
  unit

val mask : t -> int
val is_null : t -> bool

(** [tee sinks] fans events out to every sink whose mask matches; its mask
    is the union. Collapses to {!null} / the single member when possible.
    The tee is scalar-capable iff at least one member is: scalar members
    receive fields, and a single event record is built for the remaining
    [c_net] members. *)
val tee : t list -> t
