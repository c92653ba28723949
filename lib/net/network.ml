type pid = int

(* The oracle names the executor [at] — the process whose code performs
   the draw: the sender on the direct path, the relaying node on routed
   hops. Scenario oracles key their jitter streams on it (one stream per
   executor), which is what makes the draw sequence a pure function of
   each process's local computation — the property the intra-run parallel
   mode needs (DESIGN.md §18). *)
type 'm delay_oracle_us =
  now:Sim.Time.t -> seq:int -> at:pid -> src:pid -> dst:pid -> 'm -> int

(* Minimum broadcast fan-out (n - 1) for the batched wheel path; see the
   [batch] field below. *)
let batch_fanout_min = 48

type 'm t = {
  engine : Sim.Engine.t;
  n : int;
  (* Routing state (DESIGN.md §17). [routed] selects the per-hop forward
     path; it is false exactly when the topology is complete AND no
     channel classes were given, and then none of the fields below are
     ever read on the hot path — the legacy direct dispatch is untouched.
     [chan] is flat n*n ([||] = all Reliable); [link_rngs] is non-empty
     only when some edge is fair-lossy (one stream per executor, indexed
     by the hop's sending node), so reliable builds leave the engine's
     stream where the legacy constructor left it. *)
  topo : Topology.t;
  routed : bool;
  chan : Topology.channel array;
  link_rngs : Dstruct.Rng.t array;
  (* Edge-level fault surfaces, lazily materialized n*n (length 0 until a
     plan first touches them, so plan-free runs pay one length check). *)
  mutable cut_edges : Bytes.t;
  mutable degrade_us : int array;
  (* Delay in microseconds, negative = Drop: a plain [int] per message,
     so the oracle call allocates nothing. *)
  oracle_us : 'm delay_oracle_us;
  classify : 'm -> Obs.Event.msg_info;
  handlers : (src:pid -> 'm -> unit) option array;
  crashed : bool array;
  (* Per-source sequence counters: [seqs.(src)] numbers [src]'s sends
     0, 1, 2, … so a message's (src, seq) pair depends only on the
     sender's own history, never on how sends of different processes
     interleave — interleaving-invariant like the jitter streams. *)
  seqs : int array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  (* Fault-plan state, all inert by default: [groups.(i)] is process [i]'s
     connectivity group while a partition is in force ([None] = connected),
     and sends during a duplication burst ([now < dup_until]) schedule a
     second delivery [dup_extra] later than the first. *)
  mutable groups : int array option;
  mutable dup_until : Sim.Time.t;
  mutable dup_extra : Sim.Time.t;
  (* Flight freelist (a stack; order is irrelevant, only the values are
     recycled). [pool_n] slots of [pool] hold released flights. *)
  mutable pool : 'm flight array;
  mutable pool_n : int;
  (* Broadcasts batch their fan-out through the wheel's stage/commit
     splice only when [n] clears [batch_fanout_min]: the splice walks the
     staged chain with an extra placement computation per cell, which is
     pure overhead when buckets are sparse (runs of length 1) and only
     pays once fan-outs are wide enough for same-bucket runs to amortize
     it — measured crossover between n = 32 (+14% clock) and n = 64
     (−19%). The event stream is bit-identical either way; this is a
     clock-only choice, fixed per network at [create]. *)
  batch : bool;
  (* Intra-run sharding (DESIGN.md §18), all inert by default. [shard_of]
     maps each pid to its owning shard ([||] = sequential mode, the only
     state the hot path ever checks); [my_shard] is this replica's index
     (-1 on the control network the fault injector mutates);
     [outboxes.(s)] accumulates cross-shard event creations bound for
     shard [s] (newest first; the barrier commit sorts canonically); and
     [siblings] — every replica of the run including this one — is the
     fan-out list the fault mutators keep in lockstep so a barrier-time
     partition or crash lands on all shards at once. *)
  mutable shard_of : int array;
  mutable my_shard : int;
  mutable outboxes : 'm xmsg list array;
  mutable siblings : 'm t array;
}

(* The in-flight message, packed into one record: scheduling a delivery is
   [Engine.call_after engine delay deliver flight] — one block, no closure,
   no handle — where the old closure chain cost several blocks per message.
   [send] is the simulator's hottest allocation site, which is why flights
   are pooled: [deliver] releases its record back to [t.pool] (fields are
   latched into locals first) and [dispatch] reuses it for a later send, so
   steady-state traffic allocates no flights at all. A flight that is
   scheduled twice (duplication burst) clears [frecycle] so only safe,
   single-delivery flights return to the pool. [finfo] is the message's
   classification, latched at send time (classifiers are pure, so this is
   the delivery-time value too — and [classify] runs once per message, not
   once per event); it is [no_info] when no net sink was live at the send,
   which is fine because sinks are installed before a run starts. *)
and 'm flight = {
  net : 'm t;
  mutable sent_at : Sim.Time.t;
  mutable fseq : int;
  mutable fsrc : pid;
  mutable fdst : pid;
  (* Routed runs thread the SAME record through every hop: [fvia] is the
     node the scheduled arrival lands on (= [fdst] on the final hop). The
     direct path writes it once at acquisition and never reads it. *)
  mutable fvia : pid;
  mutable fmsg : 'm;
  mutable finfo : Obs.Event.msg_info;
  mutable frecycle : bool;
}

(* A cross-shard event creation in transit between a window and its
   barrier: the canonical identity ([x_key]/[x_cidx]) was drawn on the
   creating shard by {!Sim.Engine.stamp}; everything else is what
   [commit_inbox] needs to materialize a flight from the owning replica's
   pool. Plain immutable records — they live only between barriers, and
   the barrier runs on the main domain. *)
and 'm xmsg = {
  x_key : int;
  x_cidx : int;
  x_sent_at : Sim.Time.t;
  x_seq : int;
  x_src : pid;
  x_dst : pid;
  x_via : pid;
  x_msg : 'm;
  x_info : Obs.Event.msg_info;
}

let default_classify _ = Obs.Event.no_info

(* The builder record that replaced [create]'s accreted optional
   arguments. *)
module Spec = struct
  type 'm t = {
    classify : 'm -> Obs.Event.msg_info;
    oracle_us : 'm delay_oracle_us option;
    topology : Topology.kind;
    channels : (src:pid -> dst:pid -> Topology.channel) option;
  }

  let default =
    {
      classify = default_classify;
      oracle_us = None;
      topology = Topology.Complete;
      channels = None;
    }

  let with_classify classify t = { t with classify }
  let with_oracle_us oracle_us t = { t with oracle_us = Some oracle_us }
  let with_topology topology t = { t with topology }
  let with_channels channels t = { t with channels = Some channels }
end

let of_spec (spec : 'm Spec.t) engine ~n =
  if n <= 0 then invalid_arg "Network.of_spec: n must be positive";
  let oracle_us =
    match spec.Spec.oracle_us with
    | Some f -> f
    | None -> invalid_arg "Network.of_spec: spec needs with_oracle_us"
  in
  (* Routing tables are built from a stream split off the engine seed; the
     complete default splits nothing, so legacy runs see an untouched
     engine stream (digest-load-bearing). *)
  let topo =
    match spec.Spec.topology with
    | Topology.Complete -> Topology.complete n
    | kind ->
        Topology.build kind ~n ~rng:(Dstruct.Rng.split (Sim.Engine.rng engine))
  in
  if not (Topology.connected topo) then
    invalid_arg "Network.of_spec: topology is not connected";
  let chan, has_lossy =
    match spec.Spec.channels with
    | None -> ([||], false)
    | Some f ->
        let a = Array.make (n * n) Topology.Reliable in
        let lossy = ref false in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then begin
              let c = f ~src ~dst in
              (match c with
              | Topology.Fair_lossy p ->
                  (* [Rng.chance] would read p >= 1 as "always drop" and
                     p < 0 or NaN as "never": reject them instead of
                     silently cutting the edge or losing nothing. The
                     negated test catches NaN. *)
                  if not (p >= 0. && p < 1.) then
                    invalid_arg
                      "Network.of_spec: Fair_lossy loss must be in [0, 1)";
                  lossy := true
              | _ -> ());
              a.((src * n) + dst) <- c
            end
          done
        done;
        (a, !lossy)
  in
  (* One fair-lossy coin stream per executor, split in pid order: hop
     coins at node u come from [link_rngs.(u)], so each node's coin
     sequence is a function of its own forwarding history only. *)
  let link_rngs =
    if not has_lossy then [||]
    else begin
      let a =
        Array.make n (Dstruct.Rng.split (Sim.Engine.rng engine))
      in
      for i = 1 to n - 1 do
        a.(i) <- Dstruct.Rng.split (Sim.Engine.rng engine)
      done;
      a
    end
  in
  (* Any channel array forces the routed path (its classes compose per
     hop), even over a complete graph where every route is one hop. *)
  let routed = (not (Topology.is_complete topo)) || Array.length chan > 0 in
  {
    engine;
    n;
    topo;
    routed;
    chan;
    link_rngs;
    cut_edges = Bytes.empty;
    degrade_us = [||];
    oracle_us;
    classify = spec.Spec.classify;
    handlers = Array.make n None;
    crashed = Array.make n false;
    seqs = Array.make n 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    groups = None;
    dup_until = Sim.Time.zero;
    dup_extra = Sim.Time.zero;
    pool = [||];
    pool_n = 0;
    (* Batched fan-out is a property of the direct path only; routed
       broadcasts schedule first hops individually. *)
    batch = (not routed) && n - 1 >= batch_fanout_min;
    shard_of = [||];
    my_shard = -1;
    outboxes = [||];
    siblings = [||];
  }

let n t = t.n
let engine t = t.engine

let check_pid t i ~op =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: pid %d out of range" op i)

let set_handler t i f =
  check_pid t i ~op:"set_handler";
  t.handlers.(i) <- Some f

(* [release] grows the pool with the released flight itself as the
   [Array.make] filler, so no dummy element is ever needed. The pooled
   record keeps its last [fmsg]/[finfo] values alive until reuse — a
   bounded retention (pool size = peak in-flight count), unlike the
   unbounded Pqueue slot leak this design replaces. *)
let release t f =
  let k = t.pool_n in
  if k = Array.length t.pool then begin
    let a = Array.make (if k = 0 then 64 else 2 * k) f in
    Array.blit t.pool 0 a 0 k;
    t.pool <- a
  end;
  t.pool.(k) <- f;
  t.pool_n <- k + 1

(* Cross-shard creation (DESIGN.md §18): draw the canonical identity the
   local [call_after] would have drawn — same [Sched] emission, same
   creation-counter movement — and buffer the payload for the shard that
   owns [via] instead of scheduling a flight here. The window barrier
   materializes it on the owning replica via [commit_inbox]; together the
   two halves are observationally identical to the local path. *)
let defer t ~delay ~sent_at ~seq ~src ~dst ~via ~info msg =
  let time = Sim.Time.add (Sim.Engine.now t.engine) delay in
  let x_key, x_cidx = Sim.Engine.stamp t.engine time in
  let s = Array.unsafe_get t.shard_of via in
  t.outboxes.(s) <-
    {
      x_key;
      x_cidx;
      x_sent_at = sent_at;
      x_seq = seq;
      x_src = src;
      x_dst = dst;
      x_via = via;
      x_msg = msg;
      x_info = info;
    }
    :: t.outboxes.(s)

let deliver f =
  let t = f.net in
  let sent_at = f.sent_at in
  let seq = f.fseq and src = f.fsrc and dst = f.fdst in
  let msg = f.fmsg and finfo = f.finfo in
  (* Recycle before running the handler: every field is latched above, and
     the handler's own sends may then draw this very record from the pool. *)
  if f.frecycle then begin
    f.frecycle <- false;
    release t f
  end;
  (* A message to a crashed process is silently consumed: the paper treats
     the link to a crashed receiver as trivially timely. *)
  if not t.crashed.(dst) then begin
    t.delivered <- t.delivered + 1;
    let sink = Sim.Engine.sink t.engine in
    if Obs.Sink.wants sink Obs.Event.c_net then
      Obs.Sink.emit_deliver sink
        ~now:(Sim.Time.to_us (Sim.Engine.now t.engine))
        ~sent_at:(Sim.Time.to_us sent_at) ~seq ~src ~dst finfo;
    (* The handler is [dst]'s code: everything it schedules (timers, its
       own sends' deliveries) is created by [dst]. *)
    Sim.Engine.set_rank t.engine dst;
    match t.handlers.(dst) with
    | Some f -> f ~src msg
    | None -> ()
  end

let () = Sim.Checkpoint.register ~id:3 deliver

(* One message onto one link: [now], [traced] and [info] are latched by the
   caller so [broadcast] classifies once for all n-1 destinations.
   [batched] routes the delivery through {!Sim.Engine.batch_call_after}
   (staged wheel insertion); the broadcast loops set it and commit once
   after the loop, [send] keeps the immediate path. Everything observable
   (seq numbers, Send/Drop/Sched emission, FIFO order) is identical either
   way. *)
let dispatch t ~batched ~now ~traced ~info ~src ~dst msg =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  t.sent <- t.sent + 1;
  let sink = Sim.Engine.sink t.engine in
  if traced then
    Obs.Sink.emit_send sink ~now:(Sim.Time.to_us now) ~seq ~src ~dst info;
  (* A partition (or an explicit cut_edge fault) cuts the link before the
     oracle is consulted: messages across the cut are dropped without
     drawing delay randomness, so the same plan gives the same stream
     whatever the oracle. *)
  let cut =
    (match t.groups with Some g -> g.(src) <> g.(dst) | None -> false)
    || Bytes.length t.cut_edges > 0
       && Bytes.unsafe_get t.cut_edges ((src * t.n) + dst) <> '\000'
  in
  if cut then begin
    t.dropped <- t.dropped + 1;
    if traced then
      Obs.Sink.emit_drop sink ~now:(Sim.Time.to_us now) ~seq ~src ~dst info
  end
  else begin
    let delay_us = t.oracle_us ~now ~seq ~at:src ~src ~dst msg in
    if delay_us < 0 then begin
      t.dropped <- t.dropped + 1;
      if traced then
        Obs.Sink.emit_drop sink ~now:(Sim.Time.to_us now) ~seq ~src ~dst info
    end
    else begin
      let delay_us =
        if Array.length t.degrade_us = 0 then delay_us
        else delay_us + Array.unsafe_get t.degrade_us ((src * t.n) + dst)
      in
      let delay = Sim.Time.of_us delay_us in
      let cross =
        Array.length t.shard_of > 0
        && Array.unsafe_get t.shard_of dst <> t.my_shard
      in
      if cross then begin
        defer t ~delay ~sent_at:now ~seq ~src ~dst ~via:dst ~info msg;
        if Sim.Time.(now < t.dup_until) then
          defer t
            ~delay:(Sim.Time.add delay t.dup_extra)
            ~sent_at:now ~seq ~src ~dst ~via:dst ~info msg
      end
      else begin
      let flight =
          if t.pool_n = 0 then
            {
              net = t;
              sent_at = now;
              fseq = seq;
              fsrc = src;
              fdst = dst;
              fvia = dst;
              fmsg = msg;
              finfo = info;
              frecycle = true;
            }
          else begin
            let k = t.pool_n - 1 in
            t.pool_n <- k;
            let f = t.pool.(k) in
            f.sent_at <- now;
            f.fseq <- seq;
            f.fsrc <- src;
            f.fdst <- dst;
            f.fmsg <- msg;
            f.finfo <- info;
            f.frecycle <- true;
            f
          end
        in
      if batched then
        Sim.Engine.batch_call_after t.engine delay deliver flight
      else Sim.Engine.call_after t.engine delay deliver flight;
      if Sim.Time.(now < t.dup_until) then begin
        (* Two scheduled deliveries share this record; recycling on the
           first would corrupt the second, so this flight retires. *)
        flight.frecycle <- false;
        let extra = Sim.Time.add delay t.dup_extra in
        if batched then
          Sim.Engine.batch_call_after t.engine extra deliver flight
        else Sim.Engine.call_after t.engine extra deliver flight
      end
      end
    end
  end

(* ---- Routed dispatch (DESIGN.md §17) ----------------------------------

   A routed send walks the precomputed shortest path one scheduled hop at
   a time, reusing ONE pooled flight record for the whole trip: [forward]
   applies the outgoing edge's fault and channel state, asks the oracle
   for the hop delay, stamps [fvia] and schedules [hop_arrive] through the
   packed [call_after]; [hop_arrive] either finishes through the shared
   [deliver] (same latch-then-release, same Deliver event with the
   original [sent_at]/[src]) or emits a Hop and forwards again. The
   oracle is consulted per hop with the ORIGINAL (seq, src, dst) — the
   scenario's per-link policies (victim blocks, winning order) keep their
   meaning, they are just drawn once per hop. Drops before the oracle
   (cut edge, partition boundary, fair-lossy coin) emit Link_drop naming
   the hop and draw no delay randomness; an oracle drop stays the legacy
   end-to-end Drop event. *)

let acquire t ~now ~seq ~src ~dst ~info msg =
  if t.pool_n = 0 then
    {
      net = t;
      sent_at = now;
      fseq = seq;
      fsrc = src;
      fdst = dst;
      fvia = dst;
      fmsg = msg;
      finfo = info;
      frecycle = true;
    }
  else begin
    let k = t.pool_n - 1 in
    t.pool_n <- k;
    let f = t.pool.(k) in
    f.sent_at <- now;
    f.fseq <- seq;
    f.fsrc <- src;
    f.fdst <- dst;
    f.fvia <- dst;
    f.fmsg <- msg;
    f.finfo <- info;
    f.frecycle <- true;
    f
  end

let drop_on_link t f ~now ~hop_src ~hop_dst =
  t.dropped <- t.dropped + 1;
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_net then
    Obs.Sink.emit_link_drop sink
      ~now:(Sim.Time.to_us now)
      ~seq:f.fseq ~src:f.fsrc ~dst:f.fdst ~hop_src ~hop_dst f.finfo;
  if f.frecycle then begin
    f.frecycle <- false;
    release t f
  end

let rec forward t f ~now ~extra_us u =
  let dst = f.fdst in
  let v = Topology.next_hop t.topo ~src:u ~dst in
  if v < 0 then drop_on_link t f ~now ~hop_src:u ~hop_dst:u
  else begin
    let e = (u * t.n) + v in
    let cut =
      (match t.groups with Some g -> g.(u) <> g.(v) | None -> false)
      || Bytes.length t.cut_edges > 0
         && Bytes.unsafe_get t.cut_edges e <> '\000'
      || Array.length t.chan > 0
         && (match Array.unsafe_get t.chan e with
            | Topology.Fair_lossy p ->
                Array.length t.link_rngs > 0
                && Dstruct.Rng.chance t.link_rngs.(u) p
            | _ -> false)
    in
    if cut then drop_on_link t f ~now ~hop_src:u ~hop_dst:v
    else begin
      let delay_us =
        t.oracle_us ~now ~seq:f.fseq ~at:u ~src:f.fsrc ~dst f.fmsg
      in
      if delay_us < 0 then begin
        t.dropped <- t.dropped + 1;
        let sink = Sim.Engine.sink t.engine in
        if Obs.Sink.wants sink Obs.Event.c_net then
          Obs.Sink.emit_drop sink
            ~now:(Sim.Time.to_us now)
            ~seq:f.fseq ~src:f.fsrc ~dst f.finfo;
        if f.frecycle then begin
          f.frecycle <- false;
          release t f
        end
      end
      else begin
        let delay_us =
          if Array.length t.chan = 0 then delay_us
          else
            match Array.unsafe_get t.chan e with
            | Topology.Eventually_timely { gst; bound } ->
                let b = Sim.Time.to_us bound in
                if Sim.Time.(now >= gst) && delay_us > b then b else delay_us
            | _ -> delay_us
        in
        let delay_us =
          if Array.length t.degrade_us = 0 then delay_us
          else delay_us + Array.unsafe_get t.degrade_us e
        in
        let delay = Sim.Time.of_us (delay_us + extra_us) in
        let cross =
          Array.length t.shard_of > 0
          && Array.unsafe_get t.shard_of v <> t.my_shard
        in
        if cross then begin
          (* The next hop executes on another shard: ship the latched
             fields and retire the local record — the owning replica's
             pool provides the flight that finishes the trip. *)
          defer t ~delay ~sent_at:f.sent_at ~seq:f.fseq ~src:f.fsrc ~dst
            ~via:v ~info:f.finfo f.fmsg;
          if f.frecycle then begin
            f.frecycle <- false;
            release t f
          end
        end
        else begin
          f.fvia <- v;
          Sim.Engine.call_after t.engine delay hop_arrive f
        end
      end
    end
  end

and hop_arrive f =
  let t = f.net in
  let v = f.fvia in
  if v = f.fdst then deliver f
  else begin
    let now = Sim.Engine.now t.engine in
    (* The relay halted with the message in hand: the hop consumed it. *)
    if t.crashed.(v) then drop_on_link t f ~now ~hop_src:v ~hop_dst:v
    else begin
      let sink = Sim.Engine.sink t.engine in
      if Obs.Sink.wants sink Obs.Event.c_net then
        Obs.Sink.emit_hop sink
          ~now:(Sim.Time.to_us now)
          ~seq:f.fseq ~src:f.fsrc ~dst:f.fdst ~via:v f.finfo;
      (* The relay [v] is the executor of the next hop: its coin, its
         jitter draw, its scheduled event. *)
      Sim.Engine.set_rank t.engine v;
      forward t f ~now ~extra_us:0 v
    end
  end

let () = Sim.Checkpoint.register ~id:13 hop_arrive

let dispatch_routed t ~now ~traced ~info ~src ~dst msg =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  t.sent <- t.sent + 1;
  let sink = Sim.Engine.sink t.engine in
  if traced then
    Obs.Sink.emit_send sink ~now:(Sim.Time.to_us now) ~seq ~src ~dst info;
  let f = acquire t ~now ~seq ~src ~dst ~info msg in
  forward t f ~now ~extra_us:0 src;
  if Sim.Time.(now < t.dup_until) then begin
    (* Unlike the direct path, a routed duplicate cannot share the
       original's record (every hop mutates it), so it travels as its own
       flight — and both can recycle. The [dup_extra] lag lands on the
       duplicate's first hop. *)
    let g = acquire t ~now ~seq ~src ~dst ~info msg in
    forward t g ~now ~extra_us:(Sim.Time.to_us t.dup_extra) src
  end

let send t ~src ~dst msg =
  check_pid t src ~op:"send";
  check_pid t dst ~op:"send";
  if not t.crashed.(src) then begin
    let now = Sim.Engine.now t.engine in
    let sink = Sim.Engine.sink t.engine in
    let traced = Obs.Sink.wants sink Obs.Event.c_net in
    let info = if traced then t.classify msg else Obs.Event.no_info in
    if t.routed then dispatch_routed t ~now ~traced ~info ~src ~dst msg
    else dispatch t ~batched:false ~now ~traced ~info ~src ~dst msg
  end

let broadcast t ~src msg =
  check_pid t src ~op:"broadcast";
  if not t.crashed.(src) then begin
    let now = Sim.Engine.now t.engine in
    let sink = Sim.Engine.sink t.engine in
    let traced = Obs.Sink.wants sink Obs.Event.c_net in
    let info = if traced then t.classify msg else Obs.Event.no_info in
    for dst = 0 to t.n - 1 do
      if dst <> src then
        if t.routed then dispatch_routed t ~now ~traced ~info ~src ~dst msg
        else dispatch t ~batched:t.batch ~now ~traced ~info ~src ~dst msg
    done;
    if t.batch then Sim.Engine.batch_commit t.engine
  end

let broadcast_all t ~src msg =
  check_pid t src ~op:"broadcast_all";
  if not t.crashed.(src) then begin
    let now = Sim.Engine.now t.engine in
    let sink = Sim.Engine.sink t.engine in
    let traced = Obs.Sink.wants sink Obs.Event.c_net in
    let info = if traced then t.classify msg else Obs.Event.no_info in
    for dst = 0 to t.n - 1 do
      if t.routed then dispatch_routed t ~now ~traced ~info ~src ~dst msg
      else dispatch t ~batched:t.batch ~now ~traced ~info ~src ~dst msg
    done;
    if t.batch then Sim.Engine.batch_commit t.engine
  end

(* Fault mutators come in two layers: the [*1] body applies the mutation
   to ONE replica, and the public entry fans it out over [siblings] when
   the run is sharded (intra-run parallel mode keeps a full network
   replica per shard, plus a control replica for the injector — a
   barrier-time crash or cut must land on all of them at once, or the
   shards would disagree on link state). [siblings] includes the receiver
   itself; sequential runs have it empty and take the single-replica
   path untouched. *)

let crash1 t i =
  check_pid t i ~op:"crash";
  t.crashed.(i) <- true

let crash t i =
  if Array.length t.siblings = 0 then crash1 t i
  else Array.iter (fun u -> crash1 u i) t.siblings

let recover1 t i =
  check_pid t i ~op:"recover";
  t.crashed.(i) <- false

let recover t i =
  if Array.length t.siblings = 0 then recover1 t i
  else Array.iter (fun u -> recover1 u i) t.siblings

let set_partition1 t groups =
  (match groups with
  | Some g when Array.length g <> t.n ->
      invalid_arg "Network.set_partition: groups must have length n"
  | _ -> ());
  t.groups <- groups

let set_partition t groups =
  if Array.length t.siblings = 0 then set_partition1 t groups
  else Array.iter (fun u -> set_partition1 u groups) t.siblings

let set_dup_burst1 t ~until ~extra =
  if Sim.Time.(extra < Sim.Time.zero) then
    invalid_arg "Network.set_dup_burst: negative extra delay";
  t.dup_until <- until;
  t.dup_extra <- extra

let set_dup_burst t ~until ~extra =
  if Array.length t.siblings = 0 then set_dup_burst1 t ~until ~extra
  else Array.iter (fun u -> set_dup_burst1 u ~until ~extra) t.siblings

let set_edge_cut1 t ~a ~b on =
  check_pid t a ~op:"set_edge_cut";
  check_pid t b ~op:"set_edge_cut";
  if a = b then invalid_arg "Network.set_edge_cut: a = b";
  if Bytes.length t.cut_edges = 0 then begin
    if not on then () else t.cut_edges <- Bytes.make (t.n * t.n) '\000'
  end;
  if Bytes.length t.cut_edges > 0 then begin
    let v = if on then '\001' else '\000' in
    Bytes.set t.cut_edges ((a * t.n) + b) v;
    Bytes.set t.cut_edges ((b * t.n) + a) v
  end

let set_edge_cut t ~a ~b on =
  if Array.length t.siblings = 0 then set_edge_cut1 t ~a ~b on
  else Array.iter (fun u -> set_edge_cut1 u ~a ~b on) t.siblings

let set_edge_degrade1 t ~a ~b ~extra_us =
  check_pid t a ~op:"set_edge_degrade";
  check_pid t b ~op:"set_edge_degrade";
  if a = b then invalid_arg "Network.set_edge_degrade: a = b";
  if extra_us < 0 then
    invalid_arg "Network.set_edge_degrade: negative extra delay";
  if Array.length t.degrade_us = 0 then begin
    if extra_us = 0 then () else t.degrade_us <- Array.make (t.n * t.n) 0
  end;
  if Array.length t.degrade_us > 0 then begin
    t.degrade_us.((a * t.n) + b) <- extra_us;
    t.degrade_us.((b * t.n) + a) <- extra_us
  end

let set_edge_degrade t ~a ~b ~extra_us =
  if Array.length t.siblings = 0 then set_edge_degrade1 t ~a ~b ~extra_us
  else Array.iter (fun u -> set_edge_degrade1 u ~a ~b ~extra_us) t.siblings

let set_rack_cut1 t ~rack on =
  let groups = Topology.group_count t.topo in
  if groups = 0 then
    invalid_arg "Network.set_rack_cut: topology has no racks/LANs";
  if rack < 0 || rack >= groups then
    invalid_arg "Network.set_rack_cut: rack out of range";
  if Bytes.length t.cut_edges = 0 && on then
    t.cut_edges <- Bytes.make (t.n * t.n) '\000';
  if Bytes.length t.cut_edges > 0 then begin
    let v = if on then '\001' else '\000' in
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        if
          i <> j
          && (Topology.group_of t.topo i = rack)
             <> (Topology.group_of t.topo j = rack)
        then Bytes.set t.cut_edges ((i * t.n) + j) v
      done
    done
  end

let set_rack_cut t ~rack on =
  if Array.length t.siblings = 0 then set_rack_cut1 t ~rack on
  else Array.iter (fun u -> set_rack_cut1 u ~rack on) t.siblings

let topology t = t.topo
let diameter t = Topology.diameter t.topo

let is_crashed t i =
  check_pid t i ~op:"is_crashed";
  t.crashed.(i)

let correct t =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if t.crashed.(i) then acc else i :: acc)
  in
  collect (t.n - 1) []

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped

(* ---- Intra-run sharding barrier API (DESIGN.md §18) ------------------- *)

let set_sharding t ~my_shard ~shard_of ~shards =
  t.my_shard <- my_shard;
  t.shard_of <- shard_of;
  t.outboxes <- Array.make shards []

let link_siblings nets = Array.iter (fun t -> t.siblings <- nets) nets

let drain_outbox t s =
  let l = t.outboxes.(s) in
  t.outboxes.(s) <- [];
  l

let xcompare a b =
  if a.x_key <> b.x_key then compare a.x_key b.x_key
  else compare a.x_cidx b.x_cidx

let commit_inbox t lists =
  (* Keys are globally unique below the cidx tie-break, and (key, cidx)
     pairs are unique outright, so this sort is a total order: the commit
     sequence — and hence queue insertion order, which is the residual
     FIFO tie-break — is independent of how the window interleaved. *)
  let all = List.sort xcompare (List.concat lists) in
  List.iter
    (fun x ->
      let f =
        acquire t ~now:x.x_sent_at ~seq:x.x_seq ~src:x.x_src ~dst:x.x_dst
          ~info:x.x_info x.x_msg
      in
      f.fvia <- x.x_via;
      Sim.Engine.enqueue_committed t.engine ~key:x.x_key ~cidx:x.x_cidx
        (if t.routed then hop_arrive else deliver)
        f)
    all

let channel_floor_us t =
  if Array.length t.chan = 0 then max_int
  else
    Array.fold_left
      (fun acc c ->
        match c with
        | Topology.Eventually_timely { bound; _ } ->
            let b = Sim.Time.to_us bound in
            if b < acc then b else acc
        | _ -> acc)
      max_int t.chan
