(** Deterministic discrete-event engine.

    Events are actions scheduled at virtual times and totally ordered by
    the canonical key [(time, creator rank, creation index)] (DESIGN.md
    §18): same-time events order by the rank of the code that created them
    (0 = harness/system, pid + 1 = that process), then by per-creator
    creation order. For events created under one rank this degenerates to
    the classic FIFO tie-break; because the order is a pure function of
    the simulated computation — not of scheduler internals — it is the
    same under sequential and intra-run parallel execution, so a run is a
    pure function of the seed and the program under either.

    Two scheduling families share one queue and one FIFO order:

    - the closure API ({!schedule_at} / {!schedule_after}), convenient for
      tests, examples and cold paths;
    - the packed API ({!call_at} / {!call_after} / {!schedule_call_after}),
      which takes a static function and its argument separately so the hot
      path (one event per simulated message) never allocates a closure.

    The engine deliberately has no notion of processes or messages; those
    live in {!Net} and above.

    An engine holds no channel, lock or domain of its own, so one
    [Marshal.to_bytes (t, world) [Marshal.Closures]] is a deep copy of it
    and of the world marshalled with it: pending functions, payloads and
    handles ride as values and code pointers, every physical sharing
    survives, and the copy continues bit-identically in the binary that
    wrote it. A sink may hold a channel (a JSONL trace does), and then
    [Marshal] raises. [Harness.Run.snapshot] is that marshal over a whole
    run (DESIGN.md §16). *)

type t

(** A cancellable reference to a scheduled event. *)
type handle

(** [create ~seed ()] is a fresh engine at time [Time.zero].

    Pending events live in a slot store: one int slot per event, its
    fields in parallel columns that grow in fixed-size chunks, freed slots
    recycled. A hierarchical timing wheel whose buckets link slots by int
    (O(1) push) orders them. Every event the engine runs is checked to
    sort strictly after the one before it in the canonical order; a
    violation — a scheduler bug, or an {!enqueue_committed} pair that
    undercuts the running order — raises [Invalid_argument] naming both
    events' (key, creation index) pairs. [test/test_wheel.ml] checks the
    fire order against a sorted-list reference. *)
val create : seed:int64 -> unit -> t

(** Current virtual time. *)
val now : t -> Time.t

(** Root PRNG of this engine; use {!Rng.split} to derive sub-streams. *)
val rng : t -> Dstruct.Rng.t

(** The engine's observability sink ({!Obs.Sink.null} by default). Every
    layer of one simulation stack — engine, timers, networks, nodes — emits
    through this single sink, so installing one here observes the whole run.
    Producers guard on [Obs.Sink.wants], so with the null sink the cost of
    instrumentation is one branch per site and no allocation. *)
val sink : t -> Obs.Sink.t

(** [set_sink t s] replaces the sink. Sinks are engine-local state like the
    RNG: a parallel run farm must give each task its own. *)
val set_sink : t -> Obs.Sink.t -> unit

(** [set_rank t pid] declares process [pid] the creator of subsequently
    scheduled events, until the next [set_rank] or the next event pops
    (executing an event restores its own creator's rank). A schedule at
    the current instant under a rank below the executing event's takes
    the executing event's key, and the creation index of that key's rank,
    so it runs after everything already queued at that key. Called at every
    entry point into process code whose executing event does not already
    carry that process's rank: message delivery at the receiver, hop
    forwarding at the relay, node start/recover. Outside process code the
    creation context is the setup rank 0, which sorts first among
    same-time events. Raises [Invalid_argument] if [pid] exceeds the key
    encoding's capacity ({!max_pid}). *)
val set_rank : t -> int -> unit

(** [set_harness_rank t] switches creation to the reserved harness rank —
    the top of the rank space, above every pid — so post-start harness
    chains (the sampler) sort after process events at the same µs and
    never share a per-rank creation counter with a process. The run
    driver calls it once node start-up is done. *)
val set_harness_rank : t -> unit

(** Largest process id the canonical key encoding supports (2045; the
    value above it is the reserved harness rank). *)
val max_pid : int

(** Number of low key bits holding the creator rank: a canonical key is
    [(time_us lsl rank_bits) lor rank]. Exposed for the intra-run driver,
    which converts between keys and µs. *)
val rank_bits : int

(** [schedule_at t time f] runs [f ()] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past. *)
val schedule_at : t -> Time.t -> (unit -> unit) -> handle

(** [schedule_after t delay f] is [schedule_at t (now t + delay)]. *)
val schedule_after : t -> Time.t -> (unit -> unit) -> handle

(** [call_at t time fn arg] runs [fn arg] when the clock reaches [time].
    Fire-and-forget: no handle is allocated and the event cannot be
    cancelled. With a statically allocated [fn], nothing is allocated once
    the slot store holds as many slots as the run's peak of pending
    events. Raises [Invalid_argument] if [time] is in the past. *)
val call_at : t -> Time.t -> ('a -> unit) -> 'a -> unit

(** [call_after t delay fn arg] is [call_at t (now t + delay) fn arg]. *)
val call_after : t -> Time.t -> ('a -> unit) -> 'a -> unit

(** [schedule_call_after t delay fn arg] is {!call_after} with a handle:
    one handle record is the only allocation. *)
val schedule_call_after : t -> Time.t -> ('a -> unit) -> 'a -> handle

(** [cancel t h] prevents the event from firing. Idempotent; no effect if
    the event already fired. [t] must be the engine that issued [h]
    (handles don't carry an engine pointer, precisely so that scheduling
    stays cheap). *)
val cancel : t -> handle -> unit

val is_cancelled : handle -> bool

(** Number of scheduled (non-cancelled) future events. O(1): the engine
    keeps a live counter that {!cancel} decrements eagerly, rather than
    filtering the queue. *)
val pending : t -> int

(** Total events executed so far. *)
val executed : t -> int

(** [run_until t limit] executes every event with time [<= limit] and then
    advances the clock to [limit]. *)
val run_until : t -> Time.t -> unit

(** [run_until_idle ?limit t] executes events until none remain, or the next
    event lies beyond [limit]. Returns the reason it stopped. *)
val run_until_idle : ?limit:Time.t -> t -> [ `Idle | `Limit ]

(** {2 Intra-run sharded execution (DESIGN.md §18)}

    A conservative-window parallel run gives each shard of processes its
    own engine and splits every cross-shard event creation in two: the
    creating shard calls {!stamp_key} then {!stamp_cidx} — which draw the
    canonical (key, creation index) pair exactly as the local scheduling
    path would, and emit the same [Sched] event — and ships the pair with
    the payload to the owning shard, which enqueues it with
    {!enqueue_committed} at the start of its next window. Together the
    two halves are observationally identical to a local {!call_after} on
    a single sequential engine. *)

(** [stamp_key t time] reserves the canonical key of an event created in
    the current context and arriving at [time], emitting the [Sched] the
    local path would emit; [stamp_cidx t key] then draws its creation
    index. Call [stamp_cidx] exactly once per [stamp_key], with the key it
    returned: the pair is split so that stamping allocates nothing (a
    tuple return boxes without flambda). The event itself must then be
    enqueued exactly once via {!enqueue_committed} (on any engine of the
    same run). [stamp_key] raises [Invalid_argument] if [time] is in the
    past. *)
val stamp_key : t -> Time.t -> int

val stamp_cidx : t -> int -> int

(** [enqueue_committed t ~key ~cidx fn arg] enqueues an already-stamped
    event silently: no [Sched] emission, no creation-counter movement.
    Raises [Invalid_argument] if [(key, cidx)] sorts at or below the last
    executed event's: the event would run out of canonical order, which
    means the intra-run lookahead undercut a real delay. Barrier commits
    satisfy this when the lookahead is a true lower bound, because stamped
    arrivals then lie at or beyond the window end. A key below the last
    popped one is refused too. Pairs sharing a key must be committed in
    ascending creation index: equal keys pop in commit order, and the
    engine's order check raises when one fires after a pair that sorts
    above it. *)
val enqueue_committed : t -> key:int -> cidx:int -> ('a -> unit) -> 'a -> unit

(** Canonical key / creation index of the event currently executing —
    the tag under which shard buffers record this event's emissions so a
    barrier merge can re-fold the global stream in canonical order. *)
val executing_key : t -> int

val executing_cidx : t -> int

(** Earliest pending event's time in µs, or [-1] when the queue is empty.
    Peek-only: the wheel's cursor does not advance. *)
val next_pending_us : t -> int

(** Earliest pending event's full canonical key, or [-1] when the queue is
    empty. Peek-only. The intra-run driver cuts windows at the control
    replica's next key so same-µs rank order survives the barrier. *)
val next_pending_key : t -> int

(** [fast_forward t time] advances the clock to [time] (no-op if already
    there) without executing anything: barrier-time code computes relative
    delays from [now], which must read the barrier instant rather than the
    shard's last executed event time. *)
val fast_forward : t -> Time.t -> unit

(** [run_window_key t ~limit_key] executes every event with canonical key
    {e strictly} below [limit_key] — one conservative window. A window
    boundary may fall inside an instant: shard events at the barrier µs
    whose rank sorts below the control replica's pending event still
    belong to the closing window. The clock stays at the last executed
    event; use {!fast_forward} for barrier-time code. *)
val run_window_key : t -> limit_key:int -> unit

