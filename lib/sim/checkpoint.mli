(** Static-function registry for snapshot/restore (DESIGN.md §16).

    The engine's packed events are a static [fn] applied to a
    pre-existing [arg] (DESIGN.md §11). {!Engine.snapshot} swizzles each
    slot's function to the integer id registered here before marshalling
    (and back afterwards), so the packed lane of a checkpoint is
    independent of code addresses; {!Engine.restore} maps ids back to
    functions. Every function passed to [Engine.call_at]/[call_after]/
    [schedule_call_after] must be registered, or [Engine.snapshot]
    refuses the run.

    Ids are append-only, exactly like {!Obs.Event} tags: they are part of
    the on-disk checkpoint format. Current assignments:

    {v
      0  Sim.Engine           ignore_obj (free slots)
      1  Sim.Engine           call_thunk (schedule_at closure trampoline)
      2  Sim.Timer            fire
      3  Net.Network          deliver
      4  Omega.Node           sending_task
      5  Omega.Lean           heartbeat_task
      6  Omega.Lean           monitor_task
      7  Fault.Injector       apply_partition
      8  Fault.Injector       apply_crash
      9  Fault.Injector       apply_recover
      10 Fault.Injector       apply_dup
      11 Fault.Injector       activate
      12 Harness.Run          sample_task
      13 Net.Network          hop_arrive
      14 Fault.Injector       apply_edge
      15 Fault.Injector       apply_rack
      16 Omega.Heartbeat      heartbeat_task
      17 Consensus.Node       retry_task
      18 Consensus.Broadcast  driver
    v}

    New entries take the next free id and are recorded in this list. *)

val register : id:int -> ('a -> unit) -> unit
(** [register ~id fn] binds [fn] to [id]. Called once, at module
    initialization, by the module defining the static function. Raises
    [Invalid_argument] if [id] is already bound or out of range. *)

val id_of : (Obj.t -> unit) -> int
(** The id registered for this function (by physical equality), or [-1].
    Snapshot-time only — O(registry size) scan. *)

val fn_of : int -> Obj.t -> unit
(** The function registered under this id. Raises [Invalid_argument] for
    an unbound id (a checkpoint from a newer build). *)
