type pid = int

(* Communication-efficient Ω (DESIGN.md §15), after the packet-efficient
   relay construction of Bramas, Dubois, Guerraoui & Tixeuil: instead of
   every process gossiping its whole suspicion vector to everyone (Θ(n²)
   messages per round), each process sends one point-to-point HEARTBEAT per
   round to the process it currently trusts (its leader estimate, the
   "relay"), and only the relay broadcasts — one aggregated AGGREGATE
   carrying the suspicion-level vector. Steady state is 2(n-1) messages per
   round: O(n).

   Suspicion raising moves to the relay: it tracks, in its own heartbeat
   clock, how long ago each process's heartbeat counter last advanced, and
   raises its level for processes stale past an adaptive slack. Everyone
   else learns levels by max-merging the relay's AGGREGATEs. The one
   failure the relay cannot report is its own: each process runs a monitor
   that counts relay-silent periods and, past an adaptive miss budget,
   raises its own level for the relay and broadcasts an ACCUSE — the only
   n²-ish traffic, and it only flows while leadership is actually moving.

   Clocks and adversary coupling. Staleness is measured in the relay's own
   heartbeat rounds, never by comparing two processes' counters (send
   jitter makes cross-process counter comparison drift). HEARTBEAT and
   AGGREGATE carry the sender's heartbeat round and are the round-tagged
   traffic the scenario adversary victimizes
   ({!Scenarios.Scenario.round_rn_of_omega}); a victim's heartbeats stall
   for the block length, so blocks longer than the slack raise its level —
   the same rotating-star discrimination the Figure family faces, at O(n)
   traffic. The assumption's protected center is exactly the process whose
   level stops growing, so leadership converges on it.

   Hot-path discipline (DESIGN.md §11/§14) matches {!Node}: per-message
   handlers allocate nothing, the AGGREGATE payload is interned
   copy-on-write with physical-equality merge skips, periodic work rides
   packed self-reposting tasks, and every emission site is mask-guarded. *)

type t = {
  cfg : Config.t;
  net : Message.t Net.Network.t;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  me : pid;
  mutable hb_rn : int;  (* own heartbeat round; sending and receiving clock *)
  hop_slack : int;  (* extra staleness rounds a routed topology adds *)
  (* Struct-of-arrays suspicion rows, shared across the cluster like the
     gossip family's (DESIGN.md §14): this process's level vector is the
     row of [store.susp] at [base = me * n]. *)
  store : Store.t;
  susp : int array;  (* == store.susp *)
  base : int;  (* == me * n *)
  (* Relay-side freshness, indexed by peer: the highest heartbeat tag seen
     and — the staleness clock — our own [hb_rn] when it last advanced. *)
  fresh : int array;
  last_fresh_round : int array;
  (* Interned AGGREGATE payload and per-sender merge skip, exactly the
     ALIVE discipline: a published array is never mutated again. *)
  mutable payload : int array;
  mutable payload_clean : bool;
  last_merged : int array array;
  (* Monitor state: which relay it watches, whether that relay aggregated
     since the last tick, and how many silent ticks accumulated. *)
  mutable monitored : pid;
  mutable agg_seen : bool;
  mutable misses : int;
  (* Was this process its own leader estimate at the last heartbeat tick?
     Detects self-promotion: the staleness clocks re-stamp at that moment
     (see [heartbeat_task]), so staleness only ever accumulates across
     *continuous* self-leadership. *)
  mutable was_leader : bool;
  mutable epoch : int;  (* invalidates tasks of previous incarnations *)
  mutable last_leader : pid;  (* last Leader_change reported on the sink *)
  (* observers *)
  mutable max_susp_seen : int;
  mutable max_timeout_armed : Sim.Time.t;
}

(* Staleness slack, in relay heartbeat rounds: must absorb the benign
   worst case — one heartbeat period plus the asynchronous delay cap
   (async_base = 3 rounds at the defaults) plus send jitter — with margin,
   so only victim blocks longer than this register. Adaptive in the
   target's level so repeated victimization self-limits, mirroring the
   Figure family's adaptive timeouts. On a routed topology every message
   crosses up to [diameter] links, each a fresh oracle draw — one
   heartbeat period plus the async cap per hop, the same ~4-round budget
   the complete-graph constant absorbs once — so [hop_slack] adds that
   budget for every extra hop (it is 0 when complete, keeping the pinned
   digests). *)
let stale_slack t k = 6 + t.hop_slack + t.susp.(t.base + k)

(* Monitor miss budget, in monitor periods: consecutive AGGREGATE arrivals
   from a live relay can gap by one heartbeat period plus the async cap
   (~4 monitor periods under the tight config), so the budget starts above
   that and adapts with the relay's level — plus the routed hop slack,
   like [stale_slack]. *)
let miss_slack t k = 5 + t.hop_slack + t.susp.(t.base + k)

let halted t = Net.Network.is_crashed t.net t.me

let note_level t level = if level > t.max_susp_seen then t.max_susp_seen <- level

(* Sole write path to this process's level row; same store and payload
   bookkeeping as {!Node.raise_level}, same guarded Suspicion emission. *)
let raise_level t k level =
  Store.raise_level t.store t.me k level;
  t.payload_clean <- false;
  note_level t level;
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_omega then
    Obs.Sink.emit sink
      (Obs.Event.Suspicion
         {
           now = Sim.Time.to_us (Sim.Engine.now t.engine);
           pid = t.me;
           target = k;
           level;
         })

(* Lexicographic minimum of (level, pid) over this process's row, cached
   in the store until the leader's own level rises. *)
let leader t = Store.leader t.store t.me

let maybe_leader_change t =
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_omega then begin
    let l = leader t in
    if l <> t.last_leader then begin
      t.last_leader <- l;
      Obs.Sink.emit sink
        (Obs.Event.Leader_change
           {
             now = Sim.Time.to_us (Sim.Engine.now t.engine);
             pid = t.me;
             leader = l;
           })
    end
  end

(* Freshness update shared by every message kind: any round-tagged sign of
   life from [src] advances its counter and re-stamps the staleness clock.
   Monotone ([max]), so victim-delayed stragglers arriving an hour late
   cannot un-refresh anything. *)
let note_alive t ~src rn =
  if rn > t.fresh.(src) then begin
    t.fresh.(src) <- rn;
    t.last_fresh_round.(src) <- t.hb_rn
  end

let on_heartbeat t ~src rn = note_alive t ~src rn

(* Pointwise-max merge of the relay's aggregated levels, with the
   physical-equality skip on interned payloads (see {!Node.on_alive}). *)
let on_aggregate t ~src rn levels =
  note_alive t ~src rn;
  if src = t.monitored then t.agg_seen <- true;
  if levels != t.last_merged.(src) then begin
    let susp = t.susp and base = t.base in
    for k = 0 to t.cfg.Config.n - 1 do
      let lvl = Array.unsafe_get levels k in
      if lvl > Array.unsafe_get susp (base + k) then raise_level t k lvl
    done;
    t.last_merged.(src) <- levels
  end

let on_accuse t ~src rn target level =
  note_alive t ~src rn;
  if level > t.susp.(t.base + target) then raise_level t target level

let on_message t ~src msg =
  if not (halted t) then begin
    (match msg with
    | Message.Heartbeat { rn } -> on_heartbeat t ~src rn
    | Message.Aggregate { rn; levels } -> on_aggregate t ~src rn levels
    | Message.Accuse { rn; target; level } -> on_accuse t ~src rn target level
    | Message.Alive _ | Message.Suspicion _ ->
        (* Figure-family traffic; a run selects one algorithm for the
           whole cluster, so the lean variant never receives these. *)
        ());
    maybe_leader_change t
  end

(* ---- the heartbeat task (period <= beta, jittered like Node's T1) ---- *)

type task = { node : t; epoch : int }

let emit_relay_round t ~stale =
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_omega then
    Obs.Sink.emit sink
      (Obs.Event.Relay_round
         {
           now = Sim.Time.to_us (Sim.Engine.now t.engine);
           pid = t.me;
           rn = t.hb_rn;
           stale;
         })

let rec heartbeat_task ({ node = t; epoch } as task) =
  if (not (halted t)) && epoch = t.epoch then begin
    t.hb_rn <- t.hb_rn + 1;
    (* Own row stays trivially fresh: the relay never suspects itself. *)
    t.fresh.(t.me) <- t.hb_rn;
    t.last_fresh_round.(t.me) <- t.hb_rn;
    let l = leader t in
    if l = t.me then begin
      if not t.was_leader then begin
        (* Promotion grace: while this process was not the relay, nobody
           was heartbeating it, so its freshness clocks are uniformly —
           and meaninglessly — stale. Re-stamp them all: staleness is
           only evidence when it accumulated while everyone had this
           process as their heartbeat target. Without this, every
           transient self-believed relay of the anarchy phase mass-raises
           the whole cluster (the center included — and max-merge makes
           that permanent). *)
        t.was_leader <- true;
        for j = 0 to t.cfg.Config.n - 1 do
          t.last_fresh_round.(j) <- t.hb_rn
        done
      end;
      (* Relay duty: raise levels of processes whose heartbeat counter
         went stale past the slack, then broadcast the aggregate. One
         level per scan tick — the same at-most-one-increment-per-round
         pacing as the Figure family. *)
      let stale = ref 0 in
      for j = 0 to t.cfg.Config.n - 1 do
        if
          j <> t.me
          && t.hb_rn - t.last_fresh_round.(j) > stale_slack t j
        then begin
          incr stale;
          raise_level t j (t.susp.(t.base + j) + 1)
        end
      done;
      let levels =
        if t.payload_clean then t.payload
        else begin
          let p = Array.sub t.susp t.base t.cfg.Config.n in
          t.payload <- p;
          t.payload_clean <- true;
          p
        end
      in
      Net.Network.broadcast t.net ~src:t.me
        (Message.Aggregate { rn = t.hb_rn; levels });
      emit_relay_round t ~stale:stale.contents;
      maybe_leader_change t
    end
    else begin
      t.was_leader <- false;
      Net.Network.send t.net ~src:t.me ~dst:l
        (Message.Heartbeat { rn = t.hb_rn })
    end;
    let beta_us = Sim.Time.to_us t.cfg.Config.beta in
    let low =
      int_of_float (float_of_int beta_us *. (1. -. t.cfg.Config.send_jitter))
    in
    let period = Dstruct.Rng.int_in t.rng (max 1 low) beta_us in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) heartbeat_task task
  end

(* ---- the relay monitor (fixed period, adaptive miss budget) ---- *)

let emit_accusation t ~target ~level =
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_omega then
    Obs.Sink.emit sink
      (Obs.Event.Accusation
         {
           now = Sim.Time.to_us (Sim.Engine.now t.engine);
           pid = t.me;
           target;
           level;
         })

let monitor_period_us t = Sim.Time.to_us t.cfg.Config.initial_timeout

let rec monitor_task ({ node = t; epoch } as task) =
  if (not (halted t)) && epoch = t.epoch then begin
    let l = leader t in
    if l <> t.monitored then begin
      (* Leadership moved since the last tick: watch the new relay and
         grant it a full miss budget before the first accusation. *)
      t.monitored <- l;
      t.misses <- 0;
      t.agg_seen <- false
    end
    else if l = t.me || t.agg_seen then begin
      t.misses <- 0;
      t.agg_seen <- false
    end
    else begin
      t.misses <- t.misses + 1;
      let budget = miss_slack t l in
      (* Effective detection latency, reported like an armed timeout. *)
      let eff = Sim.Time.of_us (monitor_period_us t * (budget + 1)) in
      if Sim.Time.(eff > t.max_timeout_armed) then t.max_timeout_armed <- eff;
      if t.misses > budget then begin
        let level = t.susp.(t.base + l) + 1 in
        raise_level t l level;
        Net.Network.broadcast t.net ~src:t.me
          (Message.Accuse { rn = t.hb_rn; target = l; level });
        emit_accusation t ~target:l ~level;
        t.misses <- 0;
        t.agg_seen <- false;
        maybe_leader_change t
      end
    end;
    Sim.Engine.call_after t.engine
      (Sim.Time.of_us (monitor_period_us t))
      monitor_task task
  end

(* ---- cluster lifecycle ---- *)

type cluster = { nodes : t array; net : Message.t Net.Network.t }

let create_node cfg net ~store ~me =
  let n = cfg.Config.n in
  let engine = Net.Network.engine net in
  let t =
    {
      cfg;
      net;
      engine;
      rng = Dstruct.Rng.split (Sim.Engine.rng engine);
      me;
      hb_rn = 0;
      hop_slack = 4 * max 0 (Net.Network.diameter net - 1);
      store;
      susp = Store.susp store;
      base = me * n;
      fresh = Array.make n 0;
      last_fresh_round = Array.make n 0;
      payload = Array.make n 0;
      payload_clean = true;
      (* [ [||] ] is never physically equal to a length-n payload (n >= 2),
         so the first AGGREGATE from each relay always merges. *)
      last_merged = Array.make n [||];
      monitored = 0;
      agg_seen = false;
      misses = 0;
      was_leader = false;
      epoch = 0;
      last_leader = 0;
      max_susp_seen = 0;
      max_timeout_armed = Sim.Time.zero;
    }
  in
  Net.Network.set_handler net me (fun ~src msg -> on_message t ~src msg);
  t

let create cfg net =
  Config.validate cfg;
  let n = Net.Network.n net in
  if n <> cfg.Config.n then
    invalid_arg "Lean.create: network size differs from config";
  (* One struct-of-arrays store for the whole cluster, same as the gossip
     family (DESIGN.md §14). *)
  let store = Store.create ~n in
  let nodes = Array.init n (fun me -> create_node cfg net ~store ~me) in
  { nodes; net }

let arm (t : t) =
  (* Both tasks below are created by this process. *)
  Sim.Engine.set_rank t.engine t.me;
  let beta_us = Sim.Time.to_us t.cfg.Config.beta in
  (* Processes start at unrelated instants (§3), like the gossip family. *)
  let offset = Dstruct.Rng.int t.rng (max 1 beta_us) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) heartbeat_task
    { node = t; epoch = t.epoch };
  let mon_offset = Dstruct.Rng.int t.rng (max 1 (monitor_period_us t)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us mon_offset) monitor_task
    { node = t; epoch = t.epoch }

(* [owned] — see {!Cluster.start}: a sharded replica arms only the relay
   nodes it owns; [arm] draws from the node's private stream under the
   node's own rank, so a pid-ordered subset draws the sequential keys. *)
let start ?owned c =
  match owned with
  | None -> Array.iter arm c.nodes
  | Some mine -> Array.iteri (fun i nd -> if mine i then arm nd) c.nodes

(* Crash–recovery: levels and heartbeat counters are persisted state and
   survive untouched; only the monitor restarts from a clean slate (its
   silence window while down proves nothing about the relay) and the
   staleness clocks re-stamp to "fresh now" so the rejoiner doesn't
   instantly accuse everyone it missed while down. The caller must
   un-crash the transport first ([Net.Network.recover]). *)
let grace (t : t) =
  t.misses <- 0;
  t.agg_seen <- false;
  t.was_leader <- false;
  for j = 0 to t.cfg.Config.n - 1 do
    t.last_fresh_round.(j) <- t.hb_rn
  done

let recover (t : t) =
  t.epoch <- t.epoch + 1;
  grace t;
  arm t

(* A healed partition survivor kept both tasks running; only its staleness
   and monitor evidence spans the cut and must be forgiven (the gossip
   family's catch-up analogue, DESIGN.md §12). *)
let resync t = grace t

let node c i = c.nodes.(i)

let iface c : Iface.t =
  let nd i = c.nodes.(i) in
  {
    Iface.config = (nd 0).cfg;
    net = c.net;
    start = (fun () -> start c);
    leader_of = (fun p -> leader (nd p));
    recover =
      (fun p ->
        Net.Network.recover c.net p;
        recover (nd p));
    resync = (fun p -> resync (nd p));
    (* One clock drives both directions here: heartbeat rounds are emitted
       and judged in the same counter. *)
    sending_round = (fun p -> (nd p).hb_rn);
    receiving_round = (fun p -> (nd p).hb_rn);
    max_susp_level_seen = (fun p -> (nd p).max_susp_seen);
    max_timeout_armed = (fun p -> (nd p).max_timeout_armed);
    (* No bounded-condition lattice and no round-indexed state. *)
    lattice_invariant_holds = (fun _ -> true);
    round_state_cardinal = (fun _ -> 0);
  }
