(** Atomic broadcast (uniform total-order broadcast) from repeated consensus
    — the classical reduction the paper cites ([CT96], [Lamport98]): commands
    are sequenced by a series of consensus instances on command batches, and
    delivered in instance order.

    Structure per process: submitted commands are forwarded to the current
    leader (re-forwarded while undelivered, so leader changes are harmless);
    a leader proposes its pending batch to the lowest undecided instance;
    decided instances are delivered strictly in order, de-duplicating
    commands already delivered by an earlier instance.

    Properties (checked by the test suite): validity (a command submitted by
    a correct process is eventually delivered once Ω stabilizes), uniform
    agreement and total order (all correct processes deliver the same
    sequence), integrity (no duplication, no creation). *)

type pid = int

(** Commands must be comparable for de-duplication. *)
type 'v msg

(** Observability classifier for {!Net.Spec.with_classify}: an instance's
    ballot messages classify as {!Message.info} does (the instance tag
    adds 4 bytes), a forwarded command as ["forward"]. *)
val info : 'v msg -> Obs.Event.msg_info

type 'v t

(** One process of the broadcast service. As with {!Single}, [oracle] is the
    per-process leader closure, [crash_bound] the crash bound [t < n/2]. *)
val create :
  'v msg Net.Network.t ->
  me:pid ->
  oracle:(unit -> pid) ->
  retry_every:Sim.Time.t ->
  crash_bound:int ->
  equal:('v -> 'v -> bool) ->
  'v t

(** Start the periodic driver under this process's rank
    ({!Sim.Engine.set_rank}). *)
val start : 'v t -> unit

(** Submit a command for total-order delivery. *)
val submit : 'v t -> 'v -> unit

(** Commands delivered so far, in delivery order. *)
val delivered : 'v t -> 'v list

(** Number of consensus instances decided locally. *)
val instances_decided : 'v t -> int
