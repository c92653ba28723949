type pid = int

type sample = {
  time : Sim.Time.t;
  round : int;  (* slowest correct process's receiving round *)
  leaders : (pid * pid) list;
  agreed : pid option;
}

type result = {
  stabilized_at : Sim.Time.t option;
  final_leader : pid option;
  samples : sample list;
  messages_sent : int;
  messages_delivered : int;
  alive_bytes : int;
  suspicion_bytes : int;
  max_susp_level : int;
  max_timeout : Sim.Time.t;
  lattice_violations : int;
  max_round_state : int;
  min_sending_round : int;
  checker : Scenarios.Checker.report option;
  horizon : Sim.Time.t;
  digest : int64 option;
  metrics : Obs.Metrics.t option;
  re_elections : int;
  leadership_epochs : int;
  partition_downtime : Sim.Time.t;
  adversary_moves : int;
  recoveries : int;
}

module Spec = struct
  type t = {
    horizon : Sim.Time.t;
    sample_every : Sim.Time.t;
    min_stable : Sim.Time.t option;
    crashes : (pid * Sim.Time.t) list;
    plan : Fault.Plan.t;
    check : bool;
    wire_stats : bool;
    metrics : bool;
    digest : bool;
    sink : Obs.Sink.t option;
    algo : [ `Gossip | `Relay ];
    topology : Net.Topology.kind;
    link_channel : Net.Topology.channel;
    intra_domains : int;
  }

  let default =
    {
      horizon = Sim.Time.of_sec 30;
      sample_every = Sim.Time.of_ms 100;
      min_stable = None;
      crashes = [];
      plan = Fault.Plan.empty;
      check = true;
      wire_stats = false;
      metrics = false;
      digest = false;
      sink = None;
      algo = `Gossip;
      topology = Net.Topology.Complete;
      link_channel = Net.Topology.Reliable;
      intra_domains = 1;
    }

  let with_horizon horizon t = { t with horizon }
  let with_sample_every sample_every t = { t with sample_every }
  let with_min_stable w t = { t with min_stable = Some w }
  let with_crashes crashes t = { t with crashes }
  let with_plan plan t = { t with plan }
  let with_check check t = { t with check }
  let with_wire_stats wire_stats t = { t with wire_stats }
  let with_metrics metrics t = { t with metrics }
  let with_digest digest t = { t with digest }
  let with_sink sink t = { t with sink = Some sink }
  let with_algo algo t = { t with algo }
  let with_topology topology t = { t with topology }
  let with_link_channel link_channel t = { t with link_channel }

  let with_intra_domains intra_domains t =
    if intra_domains < 1 then
      invalid_arg "Run.Spec.with_intra_domains: must be >= 1";
    { t with intra_domains }
end

(* The largest round whose every non-victim message is guaranteed delivered
   by [horizon] (Scenario.arrival_bound is monotone in the round number).
   [hops] is the routed network's diameter — every hop redraws its delay,
   so the per-link bound multiplies end to end. *)
let checkable_round ?(hops = 1) scenario horizon =
  let fits rn =
    Sim.Time.(Scenarios.Scenario.arrival_bound ~hops scenario rn <= horizon)
  in
  if not (fits 1) then 0
  else begin
    (* Exponential probe, then binary search for the last fitting round. *)
    let rec grow hi = if fits hi then grow (2 * hi) else hi in
    let rec bisect lo hi =
      (* invariant: fits lo, not (fits hi) *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if fits mid then bisect mid hi else bisect lo mid
      end
    in
    let hi = grow 2 in
    max 0 (bisect 1 hi - 2)
  end

(* Round [rn] is excused from assumption checking iff a message of round
   [rn] could have been sent or in flight during one of the plan's outage
   windows: sends start no earlier than [(rn-1) * (1-jitter) * beta]
   (period >= (1-jitter)*beta, first offset > 0) and non-victim arrivals
   end by [arrival_bound rn]. Conservative in both directions — masking a
   round the outage never touched only shrinks checked coverage, never
   forges a violation. *)
let masked_rounds ?(hops = 1) ~plan ~config ~scenario () =
  match Fault.Plan.outage_windows plan with
  | [] -> fun _ -> false
  | windows ->
      let beta = Sim.Time.to_us config.Omega.Config.beta in
      let jitter = config.Omega.Config.send_jitter in
      fun rn ->
        let lo =
          int_of_float (float_of_int ((rn - 1) * beta) *. (1. -. jitter))
        in
        let hi =
          Sim.Time.to_us (Scenarios.Scenario.arrival_bound ~hops scenario rn)
        in
        List.exists
          (fun (a, b) -> lo <= Sim.Time.to_us b && Sim.Time.to_us a <= hi)
          windows

(* Leadership history statistics over the sampled [agreed] sequence:
   [epochs] counts maximal stretches of one constant agreed leader
   (delimited by anarchy or a change), [re_elections] counts changes of
   agreed leader (anarchy gaps between two reigns of the same leader do
   not count — nobody else was elected in between). *)
let leadership_stats samples =
  let rec walk epochs changes last_epoch last_leader = function
    | [] -> (epochs, changes)
    | { agreed = None; _ } :: rest ->
        walk epochs changes None last_leader rest
    | { agreed = Some l; _ } :: rest ->
        if last_epoch = Some l then walk epochs changes last_epoch last_leader rest
        else
          let changes =
            match last_leader with
            | Some l' when l' <> l -> changes + 1
            | _ -> changes
          in
          walk (epochs + 1) changes (Some l) (Some l) rest
  in
  walk 0 0 None None samples

(* ------------------------------------------------------------ live runs *)

(* The sampler is a static task over a state record, not a recursive
   closure: it is a pending event at every instant of the run, so it must
   be registered with {!Sim.Checkpoint} for snapshots — and a packed
   [(sample_task, state)] cell checkpoints as (id 12, marshalled state)
   where a closure would pin the bytes to a code address. *)
type sampler_state = {
  st_engine : Sim.Engine.t;
  st_iface : Omega.Iface.t;
  st_net : Omega.Message.t Net.Network.t;
  st_horizon : Sim.Time.t;
  st_sample_every : Sim.Time.t;
  st_fig3 : bool;
  mutable st_samples : sample list;  (* newest first *)
  mutable st_lattice_violations : int;
  mutable st_max_round_state : int;
}

let observe_nodes st =
  List.iter
    (fun p ->
      if not (Omega.Iface.lattice_invariant_holds st.st_iface p) then
        st.st_lattice_violations <- st.st_lattice_violations + 1;
      let cardinal = Omega.Iface.round_state_cardinal st.st_iface p in
      if cardinal > st.st_max_round_state then
        st.st_max_round_state <- cardinal)
    (Net.Network.correct st.st_net)

let min_receiving_round st =
  List.fold_left
    (fun acc p -> min acc (Omega.Iface.receiving_round st.st_iface p))
    max_int
    (Net.Network.correct st.st_net)

let rec sample_task st =
  st.st_samples <-
    {
      time = Sim.Engine.now st.st_engine;
      round = min_receiving_round st;
      leaders = Omega.Iface.leaders st.st_iface;
      agreed = Omega.Iface.agreed_leader st.st_iface;
    }
    :: st.st_samples;
  if st.st_fig3 then observe_nodes st else ignore (observe_nodes st);
  if Sim.Time.(Sim.Engine.now st.st_engine < st.st_horizon) then
    Sim.Engine.call_after st.st_engine st.st_sample_every sample_task st

let () = Sim.Checkpoint.register ~id:12 sample_task

type live = {
  l_spec : Spec.t;
  l_config : Omega.Config.t;
  l_engine : Sim.Engine.t;
  l_scenario : Scenarios.Scenario.t;
  l_net : Omega.Message.t Net.Network.t;
  l_iface : Omega.Iface.t;
  l_injector : Fault.Injector.t option;
  l_checker : Scenarios.Checker.t option;
  l_alive_bytes : int ref;
  l_suspicion_bytes : int ref;
  l_metrics : Obs.Metrics.t option;
  l_digest : Obs.Digest.t option;
  l_sampler : sampler_state;
}

let start ?(spec = Spec.default) ~env ~seed () =
  let {
    Spec.horizon;
    sample_every;
    min_stable = _;
    crashes;
    plan;
    check;
    wire_stats;
    metrics;
    digest;
    sink;
    algo;
    topology;
    link_channel;
    intra_domains;
  } =
    spec
  in
  if intra_domains > 1 then
    invalid_arg
      "Run.start: intra-run parallel execution covers whole runs only \
       (Run.run); the incremental start/advance/snapshot API is sequential";
  let config = Scenarios.Env.config env in
  let engine = Sim.Engine.create ~seed () in
  let scenario, net =
    Scenarios.Env.build ~topology ~channel:link_channel env engine
  in
  let checker =
    if check && Option.is_some (Scenarios.Scenario.center scenario) then
      Some (Scenarios.Checker.create scenario)
    else None
  in
  (* E5's wire-cost accounting rides the event stream: a net-events-only
     sink counting ALIVE/SUSPICION bytes, attached only when asked for —
     any live net sink makes every send/deliver construct its event, so
     the default run keeps the engine's null sink (one dead branch per
     event site, nothing allocated; see DESIGN.md §10). *)
  let alive_bytes = ref 0 and suspicion_bytes = ref 0 in
  let bytes_sink =
    if not wire_stats then []
    else
      [
        Obs.Sink.make ~mask:Obs.Event.c_net (function
          | Obs.Event.Send { kind; bytes; _ } ->
              if String.equal kind "alive" then
                alive_bytes := !alive_bytes + bytes
              else if String.equal kind "susp" then
                suspicion_bytes := !suspicion_bytes + bytes
          | _ -> ());
      ]
  in
  let metrics_agg = if metrics then Some (Obs.Metrics.create ()) else None in
  let digest_st = if digest then Some (Obs.Digest.create ()) else None in
  (* The cluster exists before the sink is installed (creation emits
     nothing, it only splits RNG streams) because the fault injector needs
     it; the injector's action scheduling likewise pre-dates the sink, so
     plan-free digests see exactly the event stream they always did. The
     algorithm behind the interface is the spec's choice, exactly like the
     scheduler backend; Iface construction is observationally free. *)
  let iface =
    match algo with
    | `Gossip -> Omega.Cluster.iface (Omega.Cluster.create config net)
    | `Relay -> Omega.Lean.iface (Omega.Lean.create config net)
  in
  let injector =
    if Fault.Plan.is_empty plan then None
    else Some (Fault.Injector.attach plan ~iface ~scenario)
  in
  Sim.Engine.set_sink engine
    (Obs.Sink.tee
       (List.concat
          [
            bytes_sink;
            (match checker with
            | Some c -> [ Scenarios.Checker.sink c ]
            | None -> []);
            (match metrics_agg with
            | Some m -> [ Obs.Metrics.sink m ]
            | None -> []);
            (match digest_st with
            | Some d -> [ Obs.Digest.sink d ]
            | None -> []);
            (match injector with
            | Some inj when Fault.Injector.adaptive_in_plan plan ->
                [ Fault.Injector.sink inj ]
            | Some _ | None -> []);
            (match sink with Some s -> [ s ] | None -> []);
          ]));
  List.iter (fun (p, time) -> Omega.Iface.crash_at iface p time) crashes;
  let fig3 = Omega.Config.has_bounded_condition config.Omega.Config.variant in
  let sampler =
    {
      st_engine = engine;
      st_iface = iface;
      st_net = net;
      st_horizon = horizon;
      st_sample_every = sample_every;
      st_fig3 = fig3;
      st_samples = [];
      st_lattice_violations = 0;
      st_max_round_state = 0;
    }
  in
  Omega.Iface.start iface;
  (* The sampler chain is harness work: its own reserved rank keeps it
     sorting after process events at a shared instant and its creation
     counter off every pid's (the sharded driver depends on that split). *)
  Sim.Engine.set_harness_rank engine;
  Sim.Engine.call_after engine sample_every sample_task sampler;
  {
    l_spec = spec;
    l_config = config;
    l_engine = engine;
    l_scenario = scenario;
    l_net = net;
    l_iface = iface;
    l_injector = injector;
    l_checker = checker;
    l_alive_bytes = alive_bytes;
    l_suspicion_bytes = suspicion_bytes;
    l_metrics = metrics_agg;
    l_digest = digest_st;
    l_sampler = sampler;
  }

let now live = Sim.Engine.now live.l_engine
let horizon live = live.l_spec.Spec.horizon

(* Slicing is observationally invisible: [run_until] only advances the
   clock, and an [advance ~until] below the horizon leaves every pending
   event in place — the digest of sliced and straight runs is identical. *)
let advance live ~until =
  Sim.Engine.run_until live.l_engine
    (Sim.Time.min until live.l_spec.Spec.horizon)

let snapshot live =
  (match live.l_spec.Spec.sink with
  | Some _ ->
      invalid_arg
        "Run.snapshot: runs with an external sink (tracing) cannot be \
         snapshotted"
  | None -> ());
  Sim.Engine.snapshot live.l_engine live

let restore bytes =
  let (_ : Sim.Engine.t), (live : live) = Sim.Engine.restore bytes in
  live

(* Result assembly shared by the sequential [finish] and the intra-run
   parallel driver: everything after the clock has reached the horizon.
   [net] provides liveness/topology state (the control replica on a
   sharded run — its crash state is kept in lockstep); the message
   counters are passed in because a sharded run must sum them over the
   shard replicas (each send and each delivery executes on exactly one). *)
let assemble ~spec ~config ~scenario ~net ~iface ~injector ~checker
    ~alive_bytes ~suspicion_bytes ~metrics_agg ~digest_st ~sampler ~sent
    ~delivered =
  let { Spec.horizon; min_stable; plan; _ } = spec in
  let min_stable =
    match min_stable with
    | Some w -> w
    | None -> Sim.Time.of_us (Sim.Time.to_us horizon / 5)
  in
  let samples = List.rev sampler.st_samples in
  let verdict =
    Stability.judge ~horizon ~min_window:min_stable
      (List.map
         (fun s ->
           { Stability.time = s.time; round = s.round; agreed = s.agreed })
         samples)
  in
  let stabilized_at = verdict.Stability.stabilized_at in
  let final_leader = verdict.Stability.final_leader in
  let correct = Net.Network.correct net in
  let max_susp_level =
    List.fold_left
      (fun acc p ->
        max acc (Omega.Iface.max_susp_level_seen iface p))
      0 correct
  in
  let max_timeout =
    List.fold_left
      (fun acc p ->
        Sim.Time.max acc (Omega.Iface.max_timeout_armed iface p))
      Sim.Time.zero correct
  in
  let min_sending_round =
    List.fold_left
      (fun acc p ->
        min acc (Omega.Iface.sending_round iface p))
      max_int correct
  in
  let checker_report =
    (* On a routed topology a message crosses [diameter] links, each with
       its own oracle draw: the arrival horizon and the checker's
       timeliness bound both scale by the diameter. *)
    let hops = max 1 (Net.Network.diameter net) in
    Option.map
      (fun c ->
        Scenarios.Checker.verify c ~stretch:hops
          ~masked:(masked_rounds ~hops ~plan ~config ~scenario ())
          ~upto_round:
            (min (checkable_round ~hops scenario horizon) min_sending_round)
          ~crashed:(Net.Network.is_crashed net))
      checker
  in
  let leadership_epochs, re_elections = leadership_stats samples in
  {
    stabilized_at;
    final_leader;
    samples;
    messages_sent = sent;
    messages_delivered = delivered;
    alive_bytes = !alive_bytes;
    suspicion_bytes = !suspicion_bytes;
    max_susp_level;
    max_timeout;
    lattice_violations = sampler.st_lattice_violations;
    max_round_state = sampler.st_max_round_state;
    min_sending_round;
    checker = checker_report;
    horizon;
    digest = Option.map Obs.Digest.value digest_st;
    metrics = metrics_agg;
    re_elections;
    leadership_epochs;
    partition_downtime = Fault.Plan.partition_downtime ~horizon plan;
    adversary_moves =
      (match injector with Some i -> Fault.Injector.moves i | None -> 0);
    recoveries =
      (match injector with Some i -> Fault.Injector.recoveries i | None -> 0);
  }

let finish live =
  let {
    l_spec = spec;
    l_config = config;
    l_engine = engine;
    l_scenario = scenario;
    l_net = net;
    l_iface = iface;
    l_injector = injector;
    l_checker = checker;
    l_alive_bytes = alive_bytes;
    l_suspicion_bytes = suspicion_bytes;
    l_metrics = metrics_agg;
    l_digest = digest_st;
    l_sampler = sampler;
  } =
    live
  in
  Sim.Engine.run_until engine spec.Spec.horizon;
  assemble ~spec ~config ~scenario ~net ~iface ~injector ~checker
    ~alive_bytes ~suspicion_bytes ~metrics_agg ~digest_st ~sampler
    ~sent:(Net.Network.sent_count net)
    ~delivered:(Net.Network.delivered_count net)

(* ------------------------- intra-run parallel execution (DESIGN.md §18) *)

(* A per-shard emission buffer: every event a shard's replica emits during
   a window, tagged with the canonical identity of the event that emitted
   it. Within one buffer tags are nondecreasing (execution order), so the
   barrier replay is a smallest-head merge of sorted streams. Three
   parallel arrays — a tuple per emission would box. *)
type ebuf = {
  mutable eb_key : int array;
  mutable eb_cidx : int array;
  mutable eb_ev : Obs.Event.t array;
  mutable eb_len : int;
}

let eb_dummy_ev = Obs.Event.Fire { now = 0 }

let eb_create () =
  {
    eb_key = Array.make 256 0;
    eb_cidx = Array.make 256 0;
    eb_ev = Array.make 256 eb_dummy_ev;
    eb_len = 0;
  }

let eb_push b ~key ~cidx ev =
  let n = b.eb_len in
  if n = Array.length b.eb_key then begin
    let cap = 2 * n in
    let k = Array.make cap 0
    and c = Array.make cap 0
    and e = Array.make cap eb_dummy_ev in
    Array.blit b.eb_key 0 k 0 n;
    Array.blit b.eb_cidx 0 c 0 n;
    Array.blit b.eb_ev 0 e 0 n;
    b.eb_key <- k;
    b.eb_cidx <- c;
    b.eb_ev <- e
  end;
  b.eb_key.(n) <- key;
  b.eb_cidx.(n) <- cidx;
  b.eb_ev.(n) <- ev;
  b.eb_len <- n + 1

let eb_clear b =
  Array.fill b.eb_ev 0 b.eb_len eb_dummy_ev;
  b.eb_len <- 0

(* Replay one window's emissions into [sink] in canonical order. A tag
   names the executing event, which ran on exactly one shard, so tags
   never tie across buffers and the merge is a total order: the replayed
   stream is the sequential stream, whatever the domains interleaved. *)
let eb_merge_replay bufs sink =
  let k = Array.length bufs in
  let pos = Array.make k 0 in
  let rec loop () =
    let best = ref (-1) and bk = ref max_int and bc = ref max_int in
    for i = 0 to k - 1 do
      let b = bufs.(i) in
      let p = pos.(i) in
      if p < b.eb_len then begin
        let key = b.eb_key.(p) and cidx = b.eb_cidx.(p) in
        if key < !bk || (key = !bk && cidx < !bc) then begin
          best := i;
          bk := key;
          bc := cidx
        end
      end
    done;
    if !best >= 0 then begin
      let b = bufs.(!best) in
      Obs.Sink.emit sink b.eb_ev.(pos.(!best));
      pos.(!best) <- pos.(!best) + 1;
      loop ()
    end
  in
  loop ();
  Array.iter eb_clear bufs

(* Whether a spec needs mid-window observability the barrier replay cannot
   provide: an external sink (tracing wants events as they happen) or an
   adaptive-adversary plan (its sink feeds back into oracle state between
   events). Such runs silently take the sequential path — same stream,
   same result. *)
let intra_fallback spec =
  Option.is_some spec.Spec.sink
  || Fault.Injector.adaptive_in_plan spec.Spec.plan

(* One conservative-window parallel run (DESIGN.md §18). [k] shards own
   contiguous pid blocks; each owns a full replica of the simulation
   stack (engine, scenario, network, cluster) built from the same seed,
   so every derived RNG stream coincides and a replica reproduces exactly
   the draws the sequential engine would have made for the processes it
   owns. A control replica carries the harness-side rank-0 state: fault
   injector, scheduled crashes, the sampler. Windows [t, t+λ) run in
   parallel — λ is the certified minimum cross-shard latency, so nothing
   created in a window can land inside it — and barriers seal
   cross-shard messages (each shard drains its inbox as its next window
   starts), replay buffered emissions in canonical order, and run rank-0
   work. *)
let run_intra ~spec ~env ~seed () =
  let {
    Spec.horizon;
    sample_every;
    crashes;
    plan;
    check;
    wire_stats;
    metrics;
    digest;
    algo;
    topology;
    link_channel;
    intra_domains;
    _;
  } =
    spec
  in
  let config = Scenarios.Env.config env in
  let n = config.Omega.Config.n in
  let k = min intra_domains n in
  let shard_of = Array.init n (fun p -> p * k / n) in
  let mk () =
    let engine = Sim.Engine.create ~seed () in
    let scenario, net =
      Scenarios.Env.build ~topology ~channel:link_channel env engine
    in
    (engine, scenario, net)
  in
  let control_engine, scenario, control_net = mk () in
  let shards = Array.init k (fun _ -> mk ()) in
  let shard_engines = Array.map (fun (e, _, _) -> e) shards in
  let shard_nets = Array.map (fun (_, _, nt) -> nt) shards in
  let mk_iface nt =
    match algo with
    | `Gossip ->
        let c = Omega.Cluster.create config nt in
        (Omega.Cluster.iface c, fun owned -> Omega.Cluster.start ~owned c)
    | `Relay ->
        let c = Omega.Lean.create config nt in
        (Omega.Lean.iface c, fun owned -> Omega.Lean.start ~owned c)
  in
  (* The control replica builds its cluster too: construction splits the
     per-node RNG streams off the engine, so skipping it would desync the
     control stream from the shards'. Its nodes never start. *)
  let (_ : Omega.Iface.t), (_ : (pid -> bool) -> unit) =
    mk_iface control_net
  in
  let pairs = Array.map mk_iface shard_nets in
  Array.iteri
    (fun i nt -> Net.Network.set_sharding nt ~my_shard:i ~shard_of ~shards:k)
    shard_nets;
  Net.Network.set_sharding control_net ~my_shard:(-1) ~shard_of ~shards:k;
  let all_nets = Array.append [| control_net |] shard_nets in
  Net.Network.link_siblings all_nets;
  let owner p = fst pairs.(shard_of.(p)) in
  (* The composite interface: per-pid queries route to the owning shard's
     replica; [net] is the control replica, so [Iface.engine] — where the
     injector and crash closures schedule — is the control (rank-0)
     engine, and fault mutators fan out over the sibling link. *)
  let iface =
    {
      Omega.Iface.config;
      net = control_net;
      start =
        (fun () ->
          Array.iteri
            (fun i (_, st) -> st (fun p -> shard_of.(p) = i))
            pairs);
      leader_of = (fun p -> (owner p).Omega.Iface.leader_of p);
      recover = (fun p -> (owner p).Omega.Iface.recover p);
      resync = (fun p -> (owner p).Omega.Iface.resync p);
      sending_round = (fun p -> (owner p).Omega.Iface.sending_round p);
      receiving_round = (fun p -> (owner p).Omega.Iface.receiving_round p);
      susp_level_get = (fun p q -> (owner p).Omega.Iface.susp_level_get p q);
      max_susp_level_seen =
        (fun p -> (owner p).Omega.Iface.max_susp_level_seen p);
      max_timeout_armed =
        (fun p -> (owner p).Omega.Iface.max_timeout_armed p);
      lattice_invariant_holds =
        (fun p -> (owner p).Omega.Iface.lattice_invariant_holds p);
      round_state_cardinal =
        (fun p -> (owner p).Omega.Iface.round_state_cardinal p);
    }
  in
  let checker =
    if check && Option.is_some (Scenarios.Scenario.center scenario) then
      Some (Scenarios.Checker.create scenario)
    else None
  in
  let alive_bytes = ref 0 and suspicion_bytes = ref 0 in
  let bytes_sink =
    if not wire_stats then []
    else
      [
        Obs.Sink.make ~mask:Obs.Event.c_net (function
          | Obs.Event.Send { kind; bytes; _ } ->
              if String.equal kind "alive" then
                alive_bytes := !alive_bytes + bytes
              else if String.equal kind "susp" then
                suspicion_bytes := !suspicion_bytes + bytes
          | _ -> ());
      ]
  in
  let metrics_agg = if metrics then Some (Obs.Metrics.create ()) else None in
  let digest_st = if digest then Some (Obs.Digest.create ()) else None in
  let injector =
    if Fault.Plan.is_empty plan then None
    else Some (Fault.Injector.attach plan ~iface ~scenario)
  in
  let real =
    Obs.Sink.tee
      (List.concat
         [
           bytes_sink;
           (match checker with
           | Some c -> [ Scenarios.Checker.sink c ]
           | None -> []);
           (match metrics_agg with
           | Some m -> [ Obs.Metrics.sink m ]
           | None -> []);
           (match digest_st with
           | Some d -> [ Obs.Digest.sink d ]
           | None -> []);
         ])
  in
  (* Setup emissions (crash-schedule Scheds, node starts) go straight to
     the real tee from every replica: the driver performs setup in the
     sequential order, so no tagging is needed yet. *)
  Sim.Engine.set_sink control_engine real;
  Array.iter (fun e -> Sim.Engine.set_sink e real) shard_engines;
  List.iter (fun (p, time) -> Omega.Iface.crash_at iface p time) crashes;
  let fig3 = Omega.Config.has_bounded_condition config.Omega.Config.variant in
  let sampler =
    {
      st_engine = control_engine;
      st_iface = iface;
      st_net = control_net;
      st_horizon = horizon;
      st_sample_every = sample_every;
      st_fig3 = fig3;
      st_samples = [];
      st_lattice_violations = 0;
      st_max_round_state = 0;
    }
  in
  Omega.Iface.start iface;
  (* As in the sequential [start]: the sampler chain lives on the reserved
     harness rank, whose creation counter only the control replica draws
     from — so its (key, cidx) stamps coincide with the sequential
     engine's exactly. *)
  Sim.Engine.set_harness_rank control_engine;
  Sim.Engine.call_after control_engine sample_every sample_task sampler;
  let mask = Obs.Sink.mask real in
  let bufs = Array.init k (fun _ -> eb_create ()) in
  let rec_sinks =
    Array.init k (fun i ->
        if mask = 0 then Obs.Sink.null
        else begin
          let e = shard_engines.(i) and b = bufs.(i) in
          Obs.Sink.make ~mask (fun ev ->
              eb_push b
                ~key:(Sim.Engine.executing_key e)
                ~cidx:(Sim.Engine.executing_cidx e)
                ev)
        end)
  in
  let record_mode on =
    Array.iteri
      (fun i e -> Sim.Engine.set_sink e (if on then rec_sinks.(i) else real))
      shard_engines
  in
  (* λ: the smallest delay any event created in a window can put between
     itself and a cross-shard arrival — the scenario's delay floor, capped
     by the tightest eventually-timely channel clamp. *)
  let lookahead_us =
    min
      (Scenarios.Scenario.lookahead_us scenario)
      (Net.Network.channel_floor_us control_net)
  in
  if lookahead_us < 1 then
    invalid_arg "Run: intra-run parallelism needs a positive delay floor";
  let horizon_us = Sim.Time.to_us horizon in
  (* The barrier only seals the outboxes; each shard drains its own inbox
     on its own domain as its window starts. *)
  let seal_all () = Array.iter Net.Network.seal all_nets in
  let wstart = ref 0 and wlim = ref 0 in
  let tasks =
    Array.init k (fun i () ->
        let e = shard_engines.(i) in
        Net.Network.drain_sealed shard_nets.(i);
        (* A window bound that missed a sealed arrival would run it out of
           order; refuse rather than reorder. *)
        let first = Sim.Engine.next_pending_key e in
        if first >= 0 && first < !wstart then
          invalid_arg
            (Printf.sprintf
               "Run: shard %d holds key %d below the window start %d after \
                draining its inbox"
               i first !wstart);
        Sim.Engine.run_window_key e ~limit_key:!wlim)
  in
  let rb = Sim.Engine.rank_bits in
  (* -1 = empty, like [next_pending_key]. Sealed arrivals are pending
     shard events too, so the window bound and the root phase see them. *)
  let min_key a b = if a < 0 || (b >= 0 && b < a) then b else a in
  let shard_min_key () =
    let acc = ref (-1) in
    for i = 0 to k - 1 do
      acc :=
        min_key !acc
          (min_key
             (Sim.Engine.next_pending_key shard_engines.(i))
             (Net.Network.sealed_min_key shard_nets.(i)))
    done;
    !acc
  in
  let pool = Parallel.Pool.create ~jobs:k () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      record_mode true;
      (* Control (rank-0/harness) work — fault appliers, crashes, the
         sampler — runs between windows, one pending key at a time, for
         as long as it sorts before every shard event. Key order is the
         sequential order: a control event keyed at rank 0 precedes the
         shard events at its instant, the harness-ranked sampler follows
         them — [rk = sk] cannot happen because the control replica's
         chains draw only ranks the shards never do. Shards are
         fast-forwarded so barrier-time relative delays are computed from
         the barrier instant, and their sinks swap to the real tee so
         recovery/resync emissions land live, in place. *)
      let rec root () =
        let rk = Sim.Engine.next_pending_key control_engine in
        if rk >= 0 && rk asr rb <= horizon_us then begin
          let sk = shard_min_key () in
          if sk < 0 || rk < sk then begin
            let at = Sim.Time.of_us (rk asr rb) in
            Array.iter (fun e -> Sim.Engine.fast_forward e at) shard_engines;
            record_mode false;
            Sim.Engine.run_window_key control_engine ~limit_key:(rk + 1);
            record_mode true;
            seal_all ();
            root ()
          end
        end
      in
      let rec loop () =
        let sk = shard_min_key () in
        let rk = Sim.Engine.next_pending_key control_engine in
        let next_us =
          let a = if sk >= 0 then sk asr rb else max_int in
          let b = if rk >= 0 then rk asr rb else max_int in
          min a b
        in
        if next_us <= horizon_us then begin
          (if sk >= 0 && sk asr rb <= horizon_us then begin
             (* One parallel window: up to the lookahead bound, cut short
                at the control replica's next key — nothing sent in the
                window can arrive below the bound, so every shard event
                in [sk, lim) is causally closed under the arrivals already
                sealed. *)
             let look =
               min ((sk asr rb) + lookahead_us) (horizon_us + 1) lsl rb
             in
             let lim = if rk >= 0 && rk < look then rk else look in
             if sk < lim then begin
               wstart := sk;
               wlim := lim;
               ignore (Parallel.Pool.run pool tasks);
               eb_merge_replay bufs real;
               seal_all ()
             end
           end);
          root ();
          loop ()
        end
      in
      loop ();
      record_mode false);
  (* Everything left pends beyond the horizon — in the engines or still
     sealed — so nothing observable differs from sequential [finish];
     advance the clocks and assemble. *)
  Array.iter (fun e -> Sim.Engine.run_until e horizon) shard_engines;
  Sim.Engine.run_until control_engine horizon;
  eb_merge_replay bufs real;
  assemble ~spec ~config ~scenario ~net:control_net ~iface ~injector ~checker
    ~alive_bytes ~suspicion_bytes ~metrics_agg ~digest_st ~sampler
    ~sent:
      (Array.fold_left
         (fun a nt -> a + Net.Network.sent_count nt)
         0 shard_nets)
    ~delivered:
      (Array.fold_left
         (fun a nt -> a + Net.Network.delivered_count nt)
         0 shard_nets)

let run ?spec ~env ~seed () =
  let spec = match spec with Some s -> s | None -> Spec.default in
  let n = (Scenarios.Env.config env).Omega.Config.n in
  if min spec.Spec.intra_domains n > 1 && not (intra_fallback spec) then
    run_intra ~spec ~env ~seed ()
  else finish (start ~spec:{ spec with Spec.intra_domains = 1 } ~env ~seed ())

let stabilization_ms result =
  match result.stabilized_at with
  | Some t -> Sim.Time.to_ms_float t
  | None -> Float.nan

let pp_summary ppf r =
  Format.fprintf ppf "leader=%s stabilized=%s msgs=%d max_susp=%d max_to=%a"
    (match r.final_leader with Some l -> string_of_int l | None -> "-")
    (match r.stabilized_at with
    | Some t -> Format.asprintf "%a" Sim.Time.pp t
    | None -> "never")
    r.messages_sent r.max_susp_level Sim.Time.pp r.max_timeout
