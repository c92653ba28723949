type pid = int

type sample = {
  time : Sim.Time.t;
  round : int;  (* slowest correct process's receiving round *)
  agreed : pid option;
}

type outcome =
  | Decision of {
      value : int option;
      at : Sim.Time.t option;
      ballots : int;
    }
  | Delivered of int list

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
  re_elections : int;
  leadership_epochs : int;
  partition_downtime : Sim.Time.t;
  adversary_moves : int;
  recoveries : int;
  outcomes : outcome array option;
}

module Spec = struct
  type input = pid * Sim.Time.t * int
  type layer = No_layer | Consensus of input list | Broadcast of input list

  type t = {
    horizon : Sim.Time.t;
    min_stable : Sim.Time.t option;
    crashes : (pid * Sim.Time.t) list;
    plan : Fault.Plan.t;
    check : bool;
    wire_stats : bool;
    digest : bool;
    sink : Obs.Sink.t option;
    algo : [ `Gossip | `Relay | `Heartbeat ];
    topology : Net.Topology.kind;
    link_channel : Net.Topology.channel;
    intra_domains : int;
    layer : layer;
  }

  let default =
    {
      horizon = Sim.Time.of_sec 30;
      min_stable = None;
      crashes = [];
      plan = Fault.Plan.empty;
      check = true;
      wire_stats = false;
      digest = false;
      sink = None;
      algo = `Gossip;
      topology = Net.Topology.Complete;
      link_channel = Net.Topology.Reliable;
      intra_domains = 1;
      layer = No_layer;
    }

  let with_horizon horizon t = { t with horizon }
  let with_min_stable w t = { t with min_stable = Some w }
  let with_crashes crashes t = { t with crashes }
  let with_plan plan t = { t with plan }
  let with_check check t = { t with check }
  let with_wire_stats wire_stats t = { t with wire_stats }
  let with_digest digest t = { t with digest }
  let with_sink sink t = { t with sink = Some sink }
  let with_algo (algo : [< `Gossip | `Relay | `Heartbeat ]) t =
    { t with algo = (algo :> [ `Gossip | `Relay | `Heartbeat ]) }
  let with_topology topology t = { t with topology }
  let with_link_channel link_channel t = { t with link_channel }

  let with_intra_domains intra_domains t =
    if intra_domains < 1 then
      invalid_arg "Run.Spec.with_intra_domains: must be >= 1";
    { t with intra_domains }

  let with_layer layer t = { t with layer }
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
   closure: it re-arms every 100 ms of the run, and a packed
   [(sample_task, state)] event allocates nothing per re-arm. *)
type sampler_state = {
  st_engine : Sim.Engine.t;
  st_iface : Omega.Iface.t;
  st_net : Omega.Message.t Net.Network.t;
  st_horizon : Sim.Time.t;
  mutable st_samples : sample list;  (* newest first *)
  mutable st_lattice_violations : int;
  mutable st_max_round_state : int;
}

let sample_every = Sim.Time.of_ms 100

(* One pass over the correct processes per sample for the slowest
   receiving round and the lattice and round-state probes, then
   [Iface.agreed_leader]'s own allocation-free walk. *)
let rec sample_task st =
  let iface = st.st_iface and net = st.st_net in
  let round = ref max_int in
  for p = 0 to Net.Network.n net - 1 do
    if not (Net.Network.is_crashed net p) then begin
      let r = Omega.Iface.receiving_round iface p in
      if r < !round then round := r;
      if not (Omega.Iface.lattice_invariant_holds iface p) then
        st.st_lattice_violations <- st.st_lattice_violations + 1;
      let cardinal = Omega.Iface.round_state_cardinal iface p in
      if cardinal > st.st_max_round_state then
        st.st_max_round_state <- cardinal
    end
  done;
  st.st_samples <-
    {
      time = Sim.Engine.now st.st_engine;
      round = !round;
      agreed = Omega.Iface.agreed_leader iface;
    }
    :: st.st_samples;
  if Sim.Time.(Sim.Engine.now st.st_engine < st.st_horizon) then
    Sim.Engine.call_after st.st_engine sample_every sample_task st

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

(* A run's consensus layer ([Spec.layer]): one network per replica
   ([nets.(0)] the control replica's), whose message type it hides, and
   each process's entry points, routed to the replica that runs the
   process. [input] (propose or submit) only sets state, so a rank-0
   control event may apply it at a barrier. *)
type layer =
  | Layer : {
      nets : 'm Net.Network.t array;
      start : pid -> unit;
      input : pid -> int -> unit;
      outcome : pid -> outcome;
    }
      -> layer

(* One shard of a sharded run (DESIGN.md §18): a full replica of the
   simulation stack that executes only its owned pids' events, plus the
   buffer its window emissions are recorded into. [sh_record] tags each
   emission with the executing event's canonical identity; between
   windows the engine's sink is the run's real tee instead. *)
type shard = {
  sh_engine : Sim.Engine.t;
  sh_net : Omega.Message.t Net.Network.t;
  sh_buf : ebuf;
  sh_record : Obs.Sink.t;
}

(* Replay one window's emissions into [sink] in canonical order. A tag
   names the executing event, which ran on exactly one shard, so tags
   never tie across buffers and the merge is a total order: the replayed
   stream is the sequential stream, whatever the domains interleaved. *)
let eb_merge_replay shards sink =
  let k = Array.length shards in
  let pos = Array.make k 0 in
  let rec loop () =
    let best = ref (-1) and bk = ref max_int and bc = ref max_int in
    for i = 0 to k - 1 do
      let b = shards.(i).sh_buf in
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
      let b = shards.(!best).sh_buf in
      Obs.Sink.emit sink b.eb_ev.(pos.(!best));
      pos.(!best) <- pos.(!best) + 1;
      loop ()
    end
  in
  loop ();
  Array.iter (fun sh -> eb_clear sh.sh_buf) shards

type live = {
  l_spec : Spec.t;
  l_config : Omega.Config.t;
  l_engine : Sim.Engine.t;
  l_scenario : Scenarios.Scenario.t;
  l_net : Omega.Message.t Net.Network.t;
  l_iface : Omega.Iface.t;
  l_layer : layer option;
  l_injector : Fault.Injector.t option;
  l_checker : Scenarios.Checker.t option;
  l_alive_bytes : int ref;
  l_suspicion_bytes : int ref;
  l_digest : Obs.Digest.t option;
  l_sampler : sampler_state;
  l_shards : shard array;  (* empty when sequential *)
  l_lookahead_us : int;  (* λ of a sharded run; unused when sequential *)
}

(* Whether a spec needs mid-window observability the barrier replay cannot
   provide: an external sink (tracing wants events as they happen) or an
   adaptive-adversary plan (its sink feeds back into oracle state between
   events). Such runs silently take the sequential path — same stream,
   same result. *)
let intra_fallback spec =
  Option.is_some spec.Spec.sink
  || Fault.Injector.adaptive_in_plan spec.Spec.plan

(* The composite interface of a sharded run: per-pid queries route to the
   owning shard's replica; [net] is the control replica, so
   [Iface.engine] — where the injector and crash closures schedule — is
   the control (rank-0) engine, and fault mutators fan out over the
   sibling link. [pairs] holds each shard's own interface and its
   owned-subset starter. *)
let sharded_iface ~config ~net ~shard_of pairs =
  let owner p = fst pairs.(shard_of.(p)) in
  {
    Omega.Iface.config;
    net;
    start =
      (fun () ->
        Array.iteri (fun i (_, st) -> st (fun p -> shard_of.(p) = i)) pairs);
    leader_of = (fun p -> (owner p).Omega.Iface.leader_of p);
    recover = (fun p -> (owner p).Omega.Iface.recover p);
    resync = (fun p -> (owner p).Omega.Iface.resync p);
    sending_round = (fun p -> (owner p).Omega.Iface.sending_round p);
    receiving_round = (fun p -> (owner p).Omega.Iface.receiving_round p);
    max_susp_level_seen =
      (fun p -> (owner p).Omega.Iface.max_susp_level_seen p);
    max_timeout_armed = (fun p -> (owner p).Omega.Iface.max_timeout_armed p);
    lattice_invariant_holds =
      (fun p -> (owner p).Omega.Iface.lattice_invariant_holds p);
    round_state_cardinal =
      (fun p -> (owner p).Omega.Iface.round_state_cardinal p);
  }

(* Shard one network per replica of a run, [nets.(0)] being the control
   replica's (DESIGN.md §18): sharded dispatch on, and every replica
   linked to every other so that fault mutators act on all of them. *)
let shard_nets ~shard_of nets =
  let k = Array.length nets - 1 in
  Array.iteri
    (fun i nt ->
      Net.Network.set_sharding nt ~my_shard:(i - 1) ~shard_of ~shards:k)
    nets;
  Net.Network.link_siblings nets

(* The layer's constants: no caller needs other values. *)
let layer_retry = Sim.Time.of_ms 50

(* The layer over every replica, [replicas.(0)] being the control one: a
   second network over each replica's Ω scenario (both networks draw from
   the same per-executor delay streams; layer messages carry no round
   tag) and one node per process whose oracle is that replica's own Ω
   leader output for the process. Each replica builds its layer after its
   cluster, so the nodes' streams split off the root after the Ω nodes'
   in every replica alike. Ω's output at p goes only to p, so p's node
   and its oracle always run in the same replica. *)
let build_layer layer ~env ~topology ~channel ~shard_of replicas =
  let config = Scenarios.Env.config env in
  let n = config.Omega.Config.n in
  let crash_bound = n - config.Omega.Config.alpha in
  let owner p = if Array.length replicas = 1 then 0 else shard_of.(p) + 1 in
  let nets classify =
    let nets =
      Array.map
        (fun (engine, scenario, _) ->
          Scenarios.Env.network ~topology ~channel ~classify
            ~round_of:(fun _ -> -1)
            env scenario engine)
        replicas
    in
    if Array.length nets > 1 then shard_nets ~shard_of nets;
    nets
  in
  let oracle (_, _, iface) p () = Omega.Iface.leader_of iface p in
  match layer with
  | Spec.No_layer -> None
  | Spec.Consensus _ ->
      let nets = nets Consensus.Message.info in
      let singles =
        Array.map2
          (fun net r ->
            Consensus.Single.create net ~oracle:(oracle r)
              ~retry_every:layer_retry ~crash_bound)
          nets replicas
      in
      let node p = Consensus.Single.node singles.(owner p) p in
      Some
        (Layer
           {
             nets;
             start = (fun p -> Consensus.Node.start (node p));
             input = (fun p v -> Consensus.Node.propose (node p) v);
             outcome =
               (fun p ->
                 Decision
                   {
                     value = Consensus.Node.decision (node p);
                     at = Consensus.Node.decided_at (node p);
                     ballots = Consensus.Node.ballots_started (node p);
                   });
           })
  | Spec.Broadcast _ ->
      let nets = nets Consensus.Broadcast.info in
      let nodes =
        Array.map2
          (fun net r ->
            Array.init n (fun me ->
                Consensus.Broadcast.create net ~me ~oracle:(oracle r me)
                  ~retry_every:layer_retry ~crash_bound ~equal:Int.equal))
          nets replicas
      in
      let node p = nodes.(owner p).(p) in
      Some
        (Layer
           {
             nets;
             start = (fun p -> Consensus.Broadcast.start (node p));
             input = (fun p v -> Consensus.Broadcast.submit (node p) v);
             outcome =
               (fun p -> Delivered (Consensus.Broadcast.delivered (node p)));
           })

(* The control replica is the whole run when sequential. A sharded run
   (K = [min intra_domains n] > 1, DESIGN.md §18) adds K shard replicas
   owning contiguous pid blocks; every replica is built from the same
   seed, so every derived RNG stream coincides and a shard reproduces
   exactly the draws the sequential engine would have made for the
   processes it owns. The control replica then carries only the
   harness-side rank-0 state: fault injector, scheduled crashes and
   layer inputs, the sampler. Observers are built once, for both modes. *)
let start ?(spec = Spec.default) ~env ~seed () =
  let {
    Spec.horizon;
    min_stable = _;
    crashes;
    plan;
    check;
    wire_stats;
    digest;
    sink;
    algo;
    topology;
    link_channel;
    intra_domains;
    layer = layer_spec;
  } =
    spec
  in
  let config = Scenarios.Env.config env in
  let n = config.Omega.Config.n in
  let k = if intra_fallback spec then 1 else min intra_domains n in
  let shard_of = Array.init n (fun p -> p * k / n) in
  let cluster net =
    match algo with
    | `Gossip ->
        let c = Omega.Cluster.create config net in
        (Omega.Cluster.iface c, fun owned -> Omega.Cluster.start ~owned c)
    | `Relay ->
        let c = Omega.Lean.create config net in
        (Omega.Lean.iface c, fun owned -> Omega.Lean.start ~owned c)
    | `Heartbeat ->
        let c = Omega.Heartbeat.create config net in
        (Omega.Heartbeat.iface c, fun owned -> Omega.Heartbeat.start ~owned c)
  in
  (* The cluster exists before the sink is installed (creation emits
     nothing, it only splits RNG streams) because the fault injector needs
     it; the injector's action scheduling likewise pre-dates the sink, so
     plan-free digests see exactly the event stream they always did. The
     algorithm behind the interface is the spec's choice; Iface
     construction is observationally free. A sharded run's control
     replica builds its cluster and layer too — skipping them would desync
     the control stream from the shards' — but its nodes never start. *)
  let replica () =
    let engine = Sim.Engine.create ~seed () in
    let scenario, net =
      Scenarios.Env.build ~topology ~channel:link_channel env engine
    in
    (engine, scenario, net, cluster net)
  in
  let replicas =
    Array.init (if k = 1 then 1 else k + 1) (fun _ -> replica ())
  in
  let engine, scenario, net, (local_iface, _) = replicas.(0) in
  let layer =
    build_layer layer_spec ~env ~topology ~channel:link_channel ~shard_of
      (Array.map (fun (e, sc, _, (i, _)) -> (e, sc, i)) replicas)
  in
  let iface, lookahead_us =
    if k = 1 then (local_iface, 0)
    else begin
      (* λ: the smallest delay any event created in a window can put
         between itself and a cross-shard arrival — the scenario's delay
         floor, capped by the tightest eventually-timely channel clamp of
         either network. *)
      let lookahead_us =
        min
          (Scenarios.Scenario.lookahead_us scenario)
          (Net.Network.channel_floor_us net)
      in
      let lookahead_us =
        match layer with
        | Some (Layer l) ->
            min lookahead_us (Net.Network.channel_floor_us l.nets.(0))
        | None -> lookahead_us
      in
      if lookahead_us < 1 then
        invalid_arg
          "Run.start: intra-run parallelism needs a positive delay floor";
      shard_nets ~shard_of (Array.map (fun (_, _, nt, _) -> nt) replicas);
      let pairs = Array.map (fun (_, _, _, c) -> c) replicas in
      ( sharded_iface ~config ~net ~shard_of (Array.sub pairs 1 k),
        lookahead_us )
    end
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
  let digest_st = if digest then Some (Obs.Digest.create ()) else None in
  let injector =
    if Fault.Plan.is_empty plan then None
    else Some (Fault.Injector.attach plan ~iface ~scenario)
  in
  let tee =
    Obs.Sink.tee
      (List.concat
         [
           bytes_sink;
           (match checker with
           | Some c -> [ Scenarios.Checker.sink c ]
           | None -> []);
           (match digest_st with
           | Some d -> [ Obs.Digest.sink d ]
           | None -> []);
           (match injector with
           | Some inj when Fault.Injector.adaptive_in_plan plan ->
               [ Fault.Injector.sink inj ]
           | Some _ | None -> []);
           (match sink with Some s -> [ s ] | None -> []);
         ])
  in
  (* Setup emissions (crash-schedule Scheds, node starts) go straight to
     the tee from every replica: setup runs in the sequential order, so
     nothing needs tagging yet. *)
  Sim.Engine.set_sink engine tee;
  let mask = Obs.Sink.mask tee in
  let shards =
    Array.init (Array.length replicas - 1) (fun i ->
        let e, _, nt, _ = replicas.(i + 1) in
        Sim.Engine.set_sink e tee;
        let buf = eb_create () in
        let record =
          if mask = 0 then Obs.Sink.null
          else
            Obs.Sink.make ~mask (fun ev ->
                eb_push buf
                  ~key:(Sim.Engine.executing_key e)
                  ~cidx:(Sim.Engine.executing_cidx e)
                  ev)
        in
        { sh_engine = e; sh_net = nt; sh_buf = buf; sh_record = record })
  in
  List.iter (fun (p, time) -> Omega.Iface.crash_at iface p time) crashes;
  (* The layer's crashes and inputs are rank-0 control events too,
     scheduled before any node starts; a crash halts the process in both
     networks. *)
  (match (layer_spec, layer) with
  | (Spec.Consensus inputs | Spec.Broadcast inputs), Some (Layer l) ->
      let at time f = ignore (Sim.Engine.schedule_at engine time f) in
      List.iter
        (fun (p, time) -> at time (fun () -> Net.Network.crash l.nets.(0) p))
        crashes;
      List.iter (fun (p, time, v) -> at time (fun () -> l.input p v)) inputs
  | _ -> ());
  let sampler =
    {
      st_engine = engine;
      st_iface = iface;
      st_net = net;
      st_horizon = horizon;
      st_samples = [];
      st_lattice_violations = 0;
      st_max_round_state = 0;
    }
  in
  Omega.Iface.start iface;
  (match layer with
  | Some (Layer l) ->
      for p = 0 to n - 1 do
        l.start p
      done
  | None -> ());
  (* The sampler chain is harness work: its own reserved rank keeps it
     sorting after process events at a shared instant, and its creation
     counter — drawn only by the control replica — off every pid's, so a
     sharded run's (key, cidx) stamps coincide with the sequential
     engine's exactly. *)
  Sim.Engine.set_harness_rank engine;
  Sim.Engine.call_after engine sample_every sample_task sampler;
  {
    l_spec = spec;
    l_config = config;
    l_engine = engine;
    l_scenario = scenario;
    l_net = net;
    l_iface = iface;
    l_layer = layer;
    l_injector = injector;
    l_checker = checker;
    l_alive_bytes = alive_bytes;
    l_suspicion_bytes = suspicion_bytes;
    l_digest = digest_st;
    l_sampler = sampler;
    l_shards = shards;
    l_lookahead_us = lookahead_us;
  }

let now live = Sim.Engine.now live.l_engine
let horizon live = live.l_spec.Spec.horizon

(* Conservative-window execution of a sharded run up to [until]
   (DESIGN.md §18). Windows [t, t+λ) run in parallel — λ is the certified
   minimum cross-shard latency, so nothing created in a window can land
   inside it — and barriers seal cross-shard messages (each shard drains
   its inbox as its next window starts), replay buffered emissions in
   canonical order, and run rank-0 work. The pool lives for this call
   only, so a live run holds no domains between slices. *)
let advance_sharded live until =
  let control = live.l_engine and shards = live.l_shards in
  let k = Array.length shards in
  let real = Sim.Engine.sink control in
  let until_us = Sim.Time.to_us until in
  let record_mode on =
    Array.iter
      (fun sh ->
        Sim.Engine.set_sink sh.sh_engine (if on then sh.sh_record else real))
      shards
  in
  (* The barrier only seals the outboxes — both networks' — and each
     shard drains its own inboxes on its own domain as its window
     starts. *)
  let seal_all () =
    Net.Network.seal live.l_net;
    Array.iter (fun sh -> Net.Network.seal sh.sh_net) shards;
    match live.l_layer with
    | Some (Layer l) -> Array.iter Net.Network.seal l.nets
    | None -> ()
  in
  let wstart = ref 0 and wlim = ref 0 in
  let tasks =
    Array.mapi
      (fun i sh () ->
        let e = sh.sh_engine in
        Net.Network.drain_sealed sh.sh_net;
        (match live.l_layer with
        | Some (Layer l) -> Net.Network.drain_sealed l.nets.(i + 1)
        | None -> ());
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
      shards
  in
  let rb = Sim.Engine.rank_bits in
  (* -1 = empty, like [next_pending_key]. Sealed arrivals are pending
     shard events too, so the window bound and the root phase see them. *)
  let min_key a b = if a < 0 || (b >= 0 && b < a) then b else a in
  let shard_min_key () =
    let acc = ref (-1) in
    for i = 0 to k - 1 do
      let sh = shards.(i) in
      acc :=
        min_key !acc
          (min_key
             (Sim.Engine.next_pending_key sh.sh_engine)
             (Net.Network.sealed_min_key sh.sh_net));
      match live.l_layer with
      | Some (Layer l) ->
          acc := min_key !acc (Net.Network.sealed_min_key l.nets.(i + 1))
      | None -> ()
    done;
    !acc
  in
  Parallel.Pool.with_pool ~jobs:k (fun pool ->
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
        let rk = Sim.Engine.next_pending_key control in
        if rk >= 0 && rk asr rb <= until_us then begin
          let sk = shard_min_key () in
          if sk < 0 || rk < sk then begin
            let at = Sim.Time.of_us (rk asr rb) in
            Array.iter
              (fun sh -> Sim.Engine.fast_forward sh.sh_engine at)
              shards;
            record_mode false;
            Sim.Engine.run_window_key control ~limit_key:(rk + 1);
            record_mode true;
            seal_all ();
            root ()
          end
        end
      in
      let rec loop () =
        let sk = shard_min_key () in
        let rk = Sim.Engine.next_pending_key control in
        let next_us =
          let a = if sk >= 0 then sk asr rb else max_int in
          let b = if rk >= 0 then rk asr rb else max_int in
          min a b
        in
        if next_us <= until_us then begin
          (if sk >= 0 && sk asr rb <= until_us then begin
             (* One parallel window: up to the lookahead bound, cut short
                at the control replica's next key — nothing sent in the
                window can arrive below the bound, so every shard event
                in [sk, lim) is causally closed under the arrivals already
                sealed. *)
             let look =
               min ((sk asr rb) + live.l_lookahead_us) (until_us + 1) lsl rb
             in
             let lim = if rk >= 0 && rk < look then rk else look in
             if sk < lim then begin
               wstart := sk;
               wlim := lim;
               ignore (Parallel.Pool.run pool tasks);
               eb_merge_replay shards real;
               seal_all ()
             end
           end);
          root ();
          loop ()
        end
      in
      loop ();
      record_mode false);
  (* Everything left pends beyond [until] — in the engines or still
     sealed — so bringing the clocks there executes nothing. *)
  Array.iter (fun sh -> Sim.Engine.run_until sh.sh_engine until) shards;
  Sim.Engine.run_until control until

(* Slicing is observationally invisible: [run_until] only advances the
   clock, and an [advance ~until] below the horizon leaves every pending
   event in place — the digest of sliced and straight runs is identical.
   A sharded run's windows are cut at [until] too; a shorter window is
   still a conservative one, and the barrier replay keeps the stream in
   canonical order across the cut. *)
let advance live ~until =
  let until = Sim.Time.min until live.l_spec.Spec.horizon in
  if Array.length live.l_shards = 0 then
    Sim.Engine.run_until live.l_engine until
  else advance_sharded live until

(* Between [advance] calls every replica's clock stands at the cut, a
   sharded run's cross-shard arrivals sit in sealed outboxes and no
   domain is held, so one marshal of the record — control and shard
   engines, recording sinks, layer networks — is a complete cut. *)
let snapshot live =
  (match live.l_spec.Spec.sink with
  | Some _ ->
      invalid_arg
        "Run.snapshot: runs with an external sink (tracing) cannot be \
         snapshotted"
  | None -> ());
  Marshal.to_bytes live [ Marshal.Closures ]

let restore bytes : live = Marshal.from_bytes bytes 0

(* [net] provides liveness/topology state (the control replica on a
   sharded run — its crash state is kept in lockstep); a sharded run sums
   the message counters over the shard replicas, since each send and each
   delivery executes on exactly one. *)
let finish live =
  advance live ~until:live.l_spec.Spec.horizon;
  let {
    l_spec = { Spec.horizon; min_stable; plan; _ };
    l_config = config;
    l_scenario = scenario;
    l_net = net;
    l_iface = iface;
    l_layer = layer;
    l_injector = injector;
    l_checker = checker;
    l_sampler = sampler;
    l_shards = shards;
    _;
  } =
    live
  in
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
  let count f =
    if Array.length shards = 0 then f net
    else Array.fold_left (fun a sh -> a + f sh.sh_net) 0 shards
  in
  {
    stabilized_at;
    final_leader;
    samples;
    messages_sent = count Net.Network.sent_count;
    messages_delivered = count Net.Network.delivered_count;
    alive_bytes = !(live.l_alive_bytes);
    suspicion_bytes = !(live.l_suspicion_bytes);
    max_susp_level;
    max_timeout;
    lattice_violations = sampler.st_lattice_violations;
    max_round_state = sampler.st_max_round_state;
    min_sending_round;
    checker = checker_report;
    horizon;
    digest = Option.map Obs.Digest.value live.l_digest;
    re_elections;
    leadership_epochs;
    partition_downtime = Fault.Plan.partition_downtime ~horizon plan;
    adversary_moves =
      (match injector with Some i -> Fault.Injector.moves i | None -> 0);
    recoveries =
      (match injector with Some i -> Fault.Injector.recoveries i | None -> 0);
    outcomes =
      (match layer with
      | Some (Layer l) -> Some (Array.init (Net.Network.n net) l.outcome)
      | None -> None);
  }

let run ?spec ~env ~seed () = finish (start ?spec ~env ~seed ())

let stabilization_ms result =
  match result.stabilized_at with
  | Some t -> Sim.Time.to_ms_float t
  | None -> Float.nan
