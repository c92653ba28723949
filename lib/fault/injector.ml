type pid = int

type t = {
  engine : Sim.Engine.t;
  net : Omega.Message.t Net.Network.t;
  iface : Omega.Iface.t;
  scenario : Scenarios.Scenario.t;
  n : int;
  (* Last leader estimate each process reported via [Leader_change]; 0
     initially, matching the nodes' own initial estimate (lines 19-21 of an
     all-zero [susp_level] elect process 0). *)
  leaders : int array;
  mutable adaptive_on : bool;
  mutable target : pid;  (* current victim override; -1 = none yet *)
  mutable moves : int;
  mutable recoveries : int;
}

let now_us inj = Sim.Time.to_us (Sim.Engine.now inj.engine)

(* Fault events are rare (a handful per run), but they still go through the
   guarded-emission discipline of every other site. *)
let emit_fault inj ev =
  let sink = Sim.Engine.sink inj.engine in
  if Obs.Sink.wants sink Obs.Event.c_fault then Obs.Sink.emit sink ev

(* ---- plan actions, as packed [call_at] events ---- *)

type partition_ev = {
  p_inj : t;
  p_groups : int array option;
  p_count : int;
  (* On heal ([p_groups = None]): processes whose group was too small to
     retain an [alpha]-quorum while the partition was in force. Their
     receiving rounds are stranded — the ALIVEs tagged with cut-window
     rounds are gone for good — so the heal re-seats them at the next live
     round ({!Omega.Node.resync}), mirroring crash recovery. Computed at
     [attach] from the plan, so it costs nothing per event. *)
  p_resync : pid array;
}

let apply_partition { p_inj = inj; p_groups; p_count; p_resync } =
  Net.Network.set_partition inj.net p_groups;
  Array.iter
    (fun p ->
      if not (Net.Network.is_crashed inj.net p) then
        Omega.Iface.resync inj.iface p)
    p_resync;
  emit_fault inj
    (Obs.Event.Partition { now = now_us inj; groups = p_count })

type pid_ev = { a_inj : t; a_pid : pid }

let apply_crash { a_inj = inj; a_pid } = Net.Network.crash inj.net a_pid

let apply_recover { a_inj = inj; a_pid } =
  Omega.Iface.recover inj.iface a_pid;
  inj.recoveries <- inj.recoveries + 1;
  emit_fault inj (Obs.Event.Recover { now = now_us inj; pid = a_pid })

type dup_ev = { d_inj : t; d_until : Sim.Time.t; d_extra : Sim.Time.t }

let apply_dup { d_inj = inj; d_until; d_extra } =
  Net.Network.set_dup_burst inj.net ~until:d_until ~extra:d_extra

(* One packed handler covers all four edge moves, keyed by the event's
   state code (mirrored verbatim in [Edge_fault]): 0 cut, 1 healed,
   2 degraded, 3 degradation lifted. *)
type edge_ev = { e_inj : t; e_a : pid; e_b : pid; e_state : int; e_us : int }

let apply_edge { e_inj = inj; e_a; e_b; e_state; e_us } =
  (match e_state with
  | 0 -> Net.Network.set_edge_cut inj.net ~a:e_a ~b:e_b true
  | 1 -> Net.Network.set_edge_cut inj.net ~a:e_a ~b:e_b false
  | 2 -> Net.Network.set_edge_degrade inj.net ~a:e_a ~b:e_b ~extra_us:e_us
  | _ -> Net.Network.set_edge_degrade inj.net ~a:e_a ~b:e_b ~extra_us:0);
  emit_fault inj
    (Obs.Event.Edge_fault
       { now = now_us inj; a = e_a; b = e_b; state = e_state })

type rack_ev = { k_inj : t; k_rack : int; k_on : bool }

let apply_rack { k_inj = inj; k_rack; k_on } =
  Net.Network.set_rack_cut inj.net ~rack:k_rack k_on;
  emit_fault inj
    (Obs.Event.Rack_fault
       { now = now_us inj; rack = k_rack; state = (if k_on then 0 else 1) })

(* ---- the adaptive adversary ---- *)

(* Re-target when every non-crashed process currently believes in the same
   leader and it differs from the current victim: the strongest reactive
   generalization of the static victim rotation. Under a star regime the
   chase must end at the center — the assumption's protected arms are
   untouched by the override, so the center's suspicion level freezes while
   every other leader the processes converge on gets blocked away. Under
   Chaos nothing is protected and the chase never ends. *)
let try_retarget inj =
  if inj.adaptive_on then begin
    let l = ref (-1) in
    let agree = ref true in
    for p = 0 to inj.n - 1 do
      if not (Net.Network.is_crashed inj.net p) then begin
        let lp = inj.leaders.(p) in
        if !l < 0 then l := lp else if lp <> !l then agree := false
      end
    done;
    if !agree && !l >= 0 && !l <> inj.target then begin
      inj.target <- !l;
      Scenarios.Scenario.set_victim_override inj.scenario !l;
      inj.moves <- inj.moves + 1;
      emit_fault inj
        (Obs.Event.Adversary_move { now = now_us inj; target = !l })
    end
  end

let activate inj =
  inj.adaptive_on <- true;
  try_retarget inj

let on_event inj = function
  | Obs.Event.Leader_change { pid; leader; _ } ->
      inj.leaders.(pid) <- leader;
      try_retarget inj
  | _ -> ()

(* The injector's own sink: it consumes omega events (leader changes) to
   drive the adaptive adversary. Tee'd with the run's other sinks by the
   harness; an adaptive plan therefore turns on [c_omega] emission even in
   otherwise unobserved runs — the override it installs perturbs the run by
   design, so there is nothing to keep unperturbed. *)
let sink inj = Obs.Sink.make ~mask:Obs.Event.c_omega (on_event inj)

(* [Plan.validate] sees only [n]; edge and rack moves must also name
   something the built topology has. A cut between non-adjacent nodes
   would silently cut nothing on a routed graph, and an out-of-range rack
   would raise from inside a running event — reject both up front. *)
let check_topology net plan =
  let topo = Net.Network.topology net in
  let edge op a b =
    if Net.Topology.dist topo ~src:a ~dst:b <> 1 then
      invalid_arg
        (Printf.sprintf "Fault.Injector.attach: %s %d-%d is not an edge" op a
           b)
  in
  List.iter
    (function
      | Plan.Cut_edge { a; b; _ } -> edge "cut_edge" a b
      | Plan.Degrade_edge { a; b; _ } -> edge "degrade_edge" a b
      | Plan.Cut_rack { rack; _ } ->
          if rack >= Net.Topology.group_count topo then
            invalid_arg
              (Printf.sprintf
                 "Fault.Injector.attach: cut_rack %d but the topology has %d \
                  racks"
                 rack
                 (Net.Topology.group_count topo))
      | _ -> ())
    (Plan.actions plan)

let attach plan ~iface ~scenario =
  let net = Omega.Iface.net iface in
  let engine = Omega.Iface.engine iface in
  let n = Omega.Iface.n iface in
  Plan.validate ~n plan;
  check_topology net plan;
  let inj =
    {
      engine;
      net;
      iface;
      scenario;
      n;
      leaders = Array.make n 0;
      adaptive_on = false;
      target = -1;
      moves = 0;
      recoveries = 0;
    }
  in
  List.iter
    (fun action ->
      match action with
      | Plan.Partition { at; heal_at; groups } ->
          let g, count = Plan.groups_array ~n groups in
          let alpha = (Omega.Iface.config iface).Omega.Config.alpha in
          let sizes = Array.make count 0 in
          Array.iter (fun id -> sizes.(id) <- sizes.(id) + 1) g;
          let stranded =
            Array.of_seq
              (Seq.filter
                 (fun p -> sizes.(g.(p)) < alpha)
                 (Seq.init n Fun.id))
          in
          Sim.Engine.call_at engine at apply_partition
            { p_inj = inj; p_groups = Some g; p_count = count; p_resync = [||] };
          Sim.Engine.call_at engine heal_at apply_partition
            { p_inj = inj; p_groups = None; p_count = 1; p_resync = stranded }
      | Plan.Crash { pid; at } ->
          Sim.Engine.call_at engine at apply_crash { a_inj = inj; a_pid = pid }
      | Plan.Recover { pid; at } ->
          Sim.Engine.call_at engine at apply_recover
            { a_inj = inj; a_pid = pid }
      | Plan.Adaptive { from } -> Sim.Engine.call_at engine from activate inj
      | Plan.Dup_burst { at; until; extra } ->
          Sim.Engine.call_at engine at apply_dup
            { d_inj = inj; d_until = until; d_extra = extra }
      | Plan.Cut_edge { a; b; at; heal_at } -> (
          Sim.Engine.call_at engine at apply_edge
            { e_inj = inj; e_a = a; e_b = b; e_state = 0; e_us = 0 };
          match heal_at with
          | None -> ()
          | Some h ->
              Sim.Engine.call_at engine h apply_edge
                { e_inj = inj; e_a = a; e_b = b; e_state = 1; e_us = 0 })
      | Plan.Degrade_edge { a; b; extra; at; until } ->
          Sim.Engine.call_at engine at apply_edge
            {
              e_inj = inj;
              e_a = a;
              e_b = b;
              e_state = 2;
              e_us = Sim.Time.to_us extra;
            };
          Sim.Engine.call_at engine until apply_edge
            { e_inj = inj; e_a = a; e_b = b; e_state = 3; e_us = 0 }
      | Plan.Cut_rack { rack; at; heal_at } -> (
          Sim.Engine.call_at engine at apply_rack
            { k_inj = inj; k_rack = rack; k_on = true };
          match heal_at with
          | None -> ()
          | Some h ->
              Sim.Engine.call_at engine h apply_rack
                { k_inj = inj; k_rack = rack; k_on = false }))
    (Plan.actions plan);
  inj

let adaptive_in_plan plan =
  List.exists
    (function Plan.Adaptive _ -> true | _ -> false)
    (Plan.actions plan)

let moves inj = inj.moves
let recoveries inj = inj.recoveries
let target inj = inj.target
