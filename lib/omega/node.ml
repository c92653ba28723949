type pid = int

(* How a node reaches its peers; decoupled from {!Net.Network} so the
   algorithm also runs over the fair-lossy + retransmission stack
   (footnote 2 of the paper). *)
type transport = {
  engine : Sim.Engine.t;
  n : int;
  send : dst:pid -> Message.t -> unit;
  halted : unit -> bool;
}

(* Per-round suspicion state: the count per suspected process (line 15) and
   whether line 17 already ran for this (round, process) pair — the paper
   increments at most once per pair, but the conditions must be re-evaluated
   on every later SUSPICION arrival because the window (line [*]) can become
   true only after older rounds' counts complete. [credited] is a bitset
   (n bits, not n words): round entries are the node's only O(n)-sized
   per-round state, and at large n their footprint dominates. *)
type suspicion_entry = { counts : int array; credited : Dstruct.Bitset.t }

type t = {
  cfg : Config.t;
  tr : transport;
  engine : Sim.Engine.t;
  rng : Dstruct.Rng.t;
  me : pid;
  mutable s_rn : int;  (* current sending round *)
  mutable r_rn : int;  (* current receiving round *)
  (* Struct-of-arrays hot state (DESIGN.md §14): this node's [susp_level]
     vector is the row of [store.susp] at [base = me * n], and the cached
     extrema and leader live in the store's per-process slots.
     [susp]/[base] are latched here so the gossip merge indexes one flat
     array directly. Levels only ever increase, so the max is maintained
     exactly on every write; the min and the leader are recomputed lazily:
     the min only after an entry at the cached minimum rose, the leader
     only after the leader's own entry rose. [arm_timer], [prune]
     and Fig3's bounded condition (line 16) consult the extrema on every
     round closure / SUSPICION. *)
  store : Store.t;
  susp : int array;  (* == store.susp *)
  base : int;  (* == me * n *)
  rec_from : Dstruct.Bitset.t Dstruct.Rounds.t;
  (* Full-prefix collapse (DESIGN.md §16): every round in
     [[r_rn, full_upto)] was received from all n processes and its bitset
     has been reclaimed — the rounds behave as present-and-full without a
     table entry. Invariant: [full_upto >= r_rn] at all times (bumped at
     every [r_rn] write), and the window's rounds are exactly the
     collapsed-full ones. Under the default config the sending frontier
     runs ahead of the receiving round without bound, and in a timely run
     the buffered rounds are all full — the collapse is what keeps a
     multi-minute run's round buffer O(gap-width) instead of O(elapsed
     time). *)
  mutable full_upto : int;
  suspicions : suspicion_entry Dstruct.Rounds.t;
  mutable timer : Sim.Timer.t option;  (* set at [create], before [start] *)
  (* Interned ALIVE payload (DESIGN.md §14): the snapshot of [susp_level]
     the sending task last broadcast. While no level rises the same array
     object is re-sent round after round — every receiver and every flight
     share it — and [raise_level] clears [payload_clean] so the next
     broadcast takes a fresh copy (copy-on-write). A published payload
     array is never mutated again, which is what makes both the sharing and
     [last_merged]'s physical-equality test sound. *)
  mutable payload : int array;
  mutable payload_clean : bool;
  (* Per-sender merge skip: the payload array last merged from each peer.
     Physical equality means contents already absorbed — levels are
     monotone, so re-merging the same array is a no-op and can be skipped
     without touching the event stream. *)
  last_merged : int array array;
  (* Broadcast fan-out, overridable so the network-backed constructor can
     call {!Net.Network.broadcast}/[broadcast_all] while transport-backed
     nodes keep the per-destination loop. [bcast_others] is line 3 (every
     [j <> i]); [bcast_all] is line 10 (itself included). Both must emit
     exactly the per-destination event sequence of a [send] loop in
     destination order. *)
  mutable bcast_others : Message.t -> unit;
  mutable bcast_all : Message.t -> unit;
  (* Last leader estimate reported on the obs sink. Only consulted (and only
     kept current) while a sink wants omega events; [leader] itself only
     refreshes the store's cache. *)
  mutable last_leader : pid;
  (* Crash–recovery state (inert unless [recover] is called). [catch_up]
     marks a freshly recovered process whose [r_rn] is stale: rec_from for
     those old rounds can never reach [alpha] again (the peers moved on), so
     the next ALIVE from a live round re-seats [r_rn] there. [sending_epoch]
     invalidates the previous incarnation's sending task: a pending
     pre-crash event would otherwise find [halted () = false] after recovery
     and resume, duplicating the loop [recover] restarts. *)
  mutable catch_up : bool;
  mutable sending_epoch : int;
  (* observers *)
  mutable max_timeout_armed : Sim.Time.t;
  mutable max_susp_seen : int;
  mutable local_increments : int;
  (* Freelists for the O(n)-sized per-round cells ([rec_from] bitsets,
     [suspicions] entries): [prune] recycles instead of discarding, so the
     steady state creates one round and retires one round per closure with
     no O(n) allocation. The [default_*] / [recycle_*] closures are built
     once at [create] (placeholders until [t] exists) — allocating them per
     call would put closures back on the per-message path. *)
  mutable set_pool : Dstruct.Bitset.t list;
  mutable susp_pool : suspicion_entry list;
  mutable default_rec : unit -> Dstruct.Bitset.t;
  mutable default_susp : unit -> suspicion_entry;
  mutable recycle_set : Dstruct.Bitset.t -> unit;
  mutable recycle_susp : suspicion_entry -> unit;
}

let me t = t.me
let config t = t.cfg

let timer_exn t =
  match t.timer with Some timer -> timer | None -> assert false

(* A crashed process executes no step at all: its pending timer and send
   events become no-ops. *)
let halted t = t.tr.halted ()

let note_level t level = if level > t.max_susp_seen then t.max_susp_seen <- level

let max_susp t = Store.max_level t.store t.me
let min_susp t = Store.min_level t.store t.me

(* Sole write path to [susp_level]; the store keeps the cached extrema and
   leader honest, and the interned ALIVE payload goes dirty. Requires
   [level > susp_level.(k)] (levels are monotone). *)
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

(* Line 11 (+ Section 7's [+ g(r_rn + 1)]), scaled to a duration as per
   DESIGN.md §2. *)
let arm_timer t =
  let g = Config.g_of t.cfg.Config.variant in
  let duration =
    Sim.Time.add
      (Sim.Time.add t.cfg.Config.initial_timeout
         (Sim.Time.of_us (Sim.Time.to_us t.cfg.Config.timeout_unit * max_susp t)))
      (g (t.r_rn + 1))
  in
  if Sim.Time.(duration > t.max_timeout_armed) then
    t.max_timeout_armed <- duration;
  Sim.Timer.set (timer_exn t) duration

(* Lines 19-21: lexicographic minimum of (susp_level.(j), j), cached in
   the store until the leader's own level rises. *)
let leader t = Store.leader t.store t.me

(* Leadership is a pure function of [susp_level] (lines 19-21), so there is
   no code point where it "changes"; instead, re-derive it after every
   message when a sink cares and report edges. *)
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

let fresh_rec_from t () =
  let s =
    match t.set_pool with
    | s :: rest ->
        t.set_pool <- rest;
        Dstruct.Bitset.clear s;
        s
    | [] -> Dstruct.Bitset.create t.cfg.Config.n
  in
  Dstruct.Bitset.add s t.me;
  s

let fresh_suspicions t () =
  match t.susp_pool with
  | e :: rest ->
      t.susp_pool <- rest;
      Array.fill e.counts 0 (Array.length e.counts) 0;
      Dstruct.Bitset.clear e.credited;
      e
  | [] ->
      {
        counts = Array.make t.cfg.Config.n 0;
        credited = Dstruct.Bitset.create t.cfg.Config.n;
      }

(* How far past the delivered-tag frontier a catch-up re-seats [r_rn]: must
   exceed the number of ALIVE tags a sender can have in flight (delay bound
   over minimum send period — some tens of ms over ~8 ms here). Rounds are
   ~10 ms, so the skip costs a recovered process well under a second. *)
let catch_up_margin = 32

(* Highest round tag still tracked, collapsed prefix included: the table's
   max, or [full_upto - 1] when the top collapsed round is higher. The
   [>= 1] guard excludes the initial state (rounds start at 1; [full_upto]
   starts at 1 without any round 0 ever existing) and the floor guard
   excludes collapsed rounds an uncollapsed table would have pruned. *)
let max_tracked_round t =
  let m =
    match Dstruct.Rounds.max_round t.rec_from with
    | Some m -> m
    | None -> min_int
  in
  let hi = t.full_upto - 1 in
  let c =
    if hi >= 1 && hi >= Dstruct.Rounds.floor t.rec_from then hi else min_int
  in
  let v = if m > c then m else c in
  if v = min_int then None else Some v

(* Reclaim the contiguous prefix of fully-received rounds starting at
   [full_upto]: each full bitset goes back to the freelist and the round
   becomes part of the collapsed window. Rounds fill out of order (delays
   jitter per sender), so the loop stops at the first gap and resumes when
   a later delivery plugs it. *)
let rec collapse_full t =
  match Dstruct.Rounds.find_exn t.rec_from t.full_upto with
  | s ->
      if Dstruct.Bitset.cardinal s = t.cfg.Config.n then begin
        Dstruct.Rounds.remove ~recycle:t.recycle_set t.rec_from t.full_upto;
        t.full_upto <- t.full_upto + 1;
        collapse_full t
      end
  | exception Not_found -> ()

(* Lines 9-12, fired once the conjunction of line 8 holds. The closing
   round is either collapsed-full ([r_rn < full_upto]: quorum holds,
   nobody suspected, no table entry to read) or looked up as before; both
   branches produce the identical SUSPICION broadcast and emissions. *)
let rec try_close_round t =
  if not (halted t) then
    if t.r_rn < t.full_upto then begin
      let ready =
        match t.cfg.Config.closure with
        | Config.Conjunction | Config.Timer_only ->
            Sim.Timer.has_expired (timer_exn t)
        | Config.Count_only -> true
      in
      if ready then close_round t ~n_suspected:0 ~suspects:[]
    end
    else begin
      let received =
        Dstruct.Rounds.find_or_add t.rec_from t.r_rn ~default:t.default_rec
      in
      let expired = Sim.Timer.has_expired (timer_exn t) in
      let quorum = Dstruct.Bitset.cardinal received >= t.cfg.Config.alpha in
      let ready =
        match t.cfg.Config.closure with
        | Config.Conjunction -> expired && quorum
        | Config.Timer_only -> expired
        | Config.Count_only -> quorum
      in
      if ready then begin
        (* The suspects of line 9 are the complement of [received], read off
           the bitset's words directly: a word whose 32 senders all delivered
           costs one test (descending fold, so the cons-list comes out
           ascending — the order [Bitset.complement |> to_list] produced);
           the cardinal is known without a [List.length] re-walk. O(live)
           work, where the per-id loop this replaces scanned all n slots. *)
        let n_suspected = t.cfg.Config.n - Dstruct.Bitset.cardinal received in
        let suspects =
          Dstruct.Bitset.fold_unset_down received ~init:[] ~f:(fun acc i ->
              i :: acc)
        in
        close_round t ~n_suspected ~suspects
      end
    end

and close_round t ~n_suspected ~suspects =
  (* Line 10 sends to every process, itself included (no [j <> i]). *)
  t.bcast_all (Message.Suspicion { rn = t.r_rn; suspects });
  let sink = Sim.Engine.sink t.engine in
  if Obs.Sink.wants sink Obs.Event.c_omega then begin
    let now = Sim.Time.to_us (Sim.Engine.now t.engine) in
    Obs.Sink.emit sink
      (Obs.Event.Round_close
         { now; pid = t.me; rn = t.r_rn; suspected = n_suspected });
    Obs.Sink.emit sink
      (Obs.Event.Round_open { now; pid = t.me; rn = t.r_rn + 1 })
  end;
  t.r_rn <- t.r_rn + 1;
  if t.full_upto < t.r_rn then t.full_upto <- t.r_rn;
  (* A catch-up (see [on_alive]) is complete only once the node closes
     rounds *at the live frontier*. A recovered process often replays a
     stretch of pre-crash buffered rounds first — those closes say
     nothing about reaching the senders, so clearing on them would leave
     the node stranded at the first buffer gap. *)
  if t.catch_up then begin
    match max_tracked_round t with
    | Some m when m > t.r_rn + catch_up_margin -> ()
    | Some _ | None -> t.catch_up <- false
  end;
  arm_timer t;
  prune t;
  (* The next round may already satisfy line 8 if the timeout was zero
     and enough future-round ALIVEs were buffered. *)
  try_close_round t

(* Discard rounds no rule can read again (DESIGN.md §2): [rec_from] below the
   current receiving round, [suspicions] below the deepest window any future
   line [*] check can reach, with a safety margin for processes whose
   receiving round lags ours. *)
and prune t =
  Dstruct.Rounds.prune_below ~recycle:t.recycle_set t.rec_from t.r_rn;
  let f = Config.f_of t.cfg.Config.variant in
  let reach = max_susp t + f t.r_rn + t.cfg.Config.prune_margin in
  Dstruct.Rounds.prune_below ~recycle:t.recycle_susp t.suspicions
    (t.r_rn - reach)

(* Lines 4-7. The pointwise-max merge is skipped when [sl] is physically
   the payload array last merged from this sender: interned payloads make
   that the steady state (a sender re-broadcasts the same array object
   until one of its levels rises), and monotonicity makes the skip exact —
   a second merge of the same contents raises nothing and emits nothing. *)
let on_alive t ~src rn sl =
  if sl != t.last_merged.(src) then begin
    let susp = t.susp and base = t.base in
    (* Unsafe accesses: [k < n], [sl] is a length-n ALIVE payload
       (Message invariant), and [base + k < n*n = length susp] (the
       store row layout) — this loop runs once per received ALIVE and
       the two bounds checks per entry were measurable at n = 128. *)
    for k = 0 to t.cfg.Config.n - 1 do
      let lvl = Array.unsafe_get sl k in
      if lvl > Array.unsafe_get susp (base + k) then raise_level t k lvl
    done;
    t.last_merged.(src) <- sl
  end;
  (* Recovery catch-up: resume receiving past the live frontier. Waiting for
     the stale [r_rn] to close would block forever — line 8 needs [alpha]
     ALIVEs tagged with that round, and no correct process sends them
     anymore. Re-seating at [rn] itself is equally wrong: send jitter spreads
     the senders' current tags over tens of rounds (and [rn] may even be a
     stale victim-delayed tag), so if fewer than [alpha] senders still have
     the target round ahead of them it can never close either. The target is
     therefore placed [catch_up_margin] past the highest tag ever delivered
     ([rec_from]'s max — the leading sender's position minus in-flight
     messages, which the margin covers): every sender then still has the
     whole target round ahead of it, and the quorum must fill. The flag
     stays armed until a round demonstrably closes at the frontier
     ({!try_close_round}): one re-seat can still land short when the first
     evidence itself was stale, and new evidence (a tag a full margin past
     [r_rn]) then re-fires the jump. Requiring a margin-sized gap keeps a
     successfully re-seated node from chasing the senders it now trails by
     design. *)
  if t.catch_up && rn > t.r_rn + catch_up_margin then begin
    let frontier =
      match max_tracked_round t with Some m -> max m rn | None -> rn
    in
    t.r_rn <- frontier + catch_up_margin;
    if t.full_upto < t.r_rn then t.full_upto <- t.r_rn;
    (* The paper has one round counter; this rendering paces [s_rn] and
       [r_rn] independently, so a recovered process would otherwise resume
       broadcasting tags from before the crash — all below its peers'
       receiving rounds, hence discarded, leaving it suspected for as long
       as its stale sending round needs to overtake them. Re-seat the
       sending side with the receiving side: the skipped tags were never
       sent and cannot be retroactively useful to anyone. *)
    if t.s_rn < t.r_rn then t.s_rn <- t.r_rn;
    let sink = Sim.Engine.sink t.engine in
    if Obs.Sink.wants sink Obs.Event.c_omega then
      Obs.Sink.emit sink
        (Obs.Event.Round_open
           {
             now = Sim.Time.to_us (Sim.Engine.now t.engine);
             pid = t.me;
             rn = t.r_rn;
           });
    arm_timer t;
    prune t
  end;
  (* Rounds in [[r_rn, full_upto)] are collapsed-full: every bit is already
     set, so the add would be a no-op on a reclaimed bitset — skip it. The
     [full_upto >= r_rn] invariant makes this guard subsume the old
     [rn >= r_rn] one. *)
  if rn >= t.full_upto then begin
    let received =
      Dstruct.Rounds.find_or_add t.rec_from rn ~default:t.default_rec
    in
    Dstruct.Bitset.add received src;
    (* This delivery may have completed the frontier round: reclaim the
       contiguous full prefix. Amortized once per round per node. *)
    if
      rn = t.full_upto
      && Dstruct.Bitset.cardinal received = t.cfg.Config.n
    then collapse_full t
  end;
  (* The line-8 conjunction may have just become true (timer expired first,
     the [alpha]-th ALIVE arrived now). *)
  try_close_round t

(* Line [*] of Figures 2-3, widened by [f] for the A_{f,g} variant:
   every round in [[rn - susp_level.(k) - f rn, rn]] must already have
   [alpha] suspicions against [k]. Rounds below 1 don't exist; rounds below
   the prune floor count as unsatisfied (they can only be reached when the
   margin is exceeded, which delays — never falsifies — an increment). *)
let rec window_check t rn k x =
  if x > rn then true
  else
    match Dstruct.Rounds.find_exn t.suspicions x with
    | entry ->
        entry.counts.(k) >= t.cfg.Config.alpha && window_check t rn k (x + 1)
    | exception Not_found -> false

let window_satisfied t rn k =
  let f = Config.f_of t.cfg.Config.variant in
  let lo = max 1 (rn - t.susp.(t.base + k) - f rn) in
  let floor = Dstruct.Rounds.floor t.suspicions in
  (* [window_check] is a top-level recursion over [Rounds.find_exn], one
     ring-slot probe per window round with no hashing and no allocation: a
     nested [let rec] would build a closure, and [Rounds.find] a [Some]
     box, on every SUSPICION's suspect walk. *)
  if lo < floor then false else window_check t rn k lo

(* Lines 13-18. The suspect loop is a top-level recursion over the list
   rather than a [List.iter] closure: the closure would capture four
   variables and be rebuilt for every SUSPICION received — a per-message
   allocation on a path that must stay steady-state free. *)
let rec credit_suspects t entry rn variant = function
  | [] -> ()
  | k :: rest ->
      entry.counts.(k) <- entry.counts.(k) + 1;
      let quorum =
        entry.counts.(k) >= t.cfg.Config.alpha
        && not (Dstruct.Bitset.mem entry.credited k)
      in
      let window =
        (not (Config.has_window_condition variant)) || window_satisfied t rn k
      in
      let bounded =
        (not (Config.has_bounded_condition variant))
        || t.susp.(t.base + k) = min_susp t
      in
      if quorum && window && bounded then begin
        Dstruct.Bitset.add entry.credited k;
        raise_level t k (t.susp.(t.base + k) + 1);
        t.local_increments <- t.local_increments + 1
      end;
      credit_suspects t entry rn variant rest

let on_suspicion t rn suspects =
  if rn >= Dstruct.Rounds.floor t.suspicions then begin
    let entry =
      Dstruct.Rounds.find_or_add t.suspicions rn ~default:t.default_susp
    in
    credit_suspects t entry rn t.cfg.Config.variant suspects
  end

let on_message t ~src msg =
  if not (halted t) then begin
    (match msg with
    | Message.Alive { rn; susp_level } -> on_alive t ~src rn susp_level
    | Message.Suspicion { rn; suspects } -> on_suspicion t rn suspects
    | Message.Heartbeat _ | Message.Aggregate _ | Message.Accuse _ ->
        (* Lean-variant traffic; a run selects one algorithm for the whole
           cluster, so the Figure family never receives these. *)
        ());
    maybe_leader_change t
  end

(* Lines 1-3 (task T1): consecutive broadcasts at most [beta] apart. The
   task re-posts itself packed ([call_after] with one record per incarnation
   as the argument), so the periodic loop allocates no closures. The epoch
   check retires tasks of previous incarnations after a recovery. *)
type task = { node : t; epoch : int }

let rec sending_task ({ node = t; epoch } as task) =
  if (not (halted t)) && epoch = t.sending_epoch then begin
    t.s_rn <- t.s_rn + 1;
    (* Interned payload: re-broadcast the same snapshot array while no
       level rose since it was taken (the steady state once suspicions
       settle), copy the row afresh otherwise. Published arrays are never
       written again, so every flight and every receiver-side cache may
       hold them indefinitely. The copy was [Array.copy susp_level] on
       every single round — Θ(n²) ints per round cluster-wide. *)
    let sl =
      if t.payload_clean then t.payload
      else begin
        let p = Array.sub t.susp t.base t.cfg.Config.n in
        t.payload <- p;
        t.payload_clean <- true;
        p
      end
    in
    (* Line 3: every j <> i. *)
    t.bcast_others (Message.Alive { rn = t.s_rn; susp_level = sl });
    let beta_us = Sim.Time.to_us t.cfg.Config.beta in
    let low =
      int_of_float (float_of_int beta_us *. (1. -. t.cfg.Config.send_jitter))
    in
    let period = Dstruct.Rng.int_in t.rng (max 1 low) beta_us in
    Sim.Engine.call_after t.engine (Sim.Time.of_us period) sending_task task
  end

let create_with_transport ?store cfg (tr : transport) ~me =
  Config.validate cfg;
  if tr.n <> cfg.Config.n then
    invalid_arg "Node.create: transport size differs from config";
  let n = cfg.Config.n in
  let store =
    match store with
    | Some s ->
        if Store.n s <> n then
          invalid_arg "Node.create: store size differs from config";
        s
    | None -> Store.create ~n
  in
  let engine = tr.engine in
  let t =
    {
      cfg;
      tr;
      engine;
      rng = Dstruct.Rng.split (Sim.Engine.rng engine);
      me;
      s_rn = 0;
      r_rn = 1;
      full_upto = 1;
      store;
      susp = Store.susp store;
      base = me * n;
      rec_from = Dstruct.Rounds.create ();
      suspicions = Dstruct.Rounds.create ();
      timer = None;
      (* The initial all-zero payload matches the initial all-zero row, so
         the first broadcasts share it until a first suspicion. *)
      payload = Array.make n 0;
      payload_clean = true;
      (* [ [||] ] is never physically equal to a length-n payload (n >= 2),
         so every sender's first ALIVE merges. *)
      last_merged = Array.make n [||];
      bcast_others = ignore;
      bcast_all = ignore;
      last_leader = 0;
      catch_up = false;
      sending_epoch = 0;
      max_timeout_armed = cfg.Config.initial_timeout;
      max_susp_seen = 0;
      local_increments = 0;
      set_pool = [];
      susp_pool = [];
      default_rec = (fun () -> assert false);
      default_susp = (fun () -> assert false);
      recycle_set = ignore;
      recycle_susp = ignore;
    }
  in
  t.default_rec <- (fun () -> fresh_rec_from t ());
  t.default_susp <- (fun () -> fresh_suspicions t ());
  t.recycle_set <- (fun s -> t.set_pool <- s :: t.set_pool);
  t.recycle_susp <- (fun e -> t.susp_pool <- e :: t.susp_pool);
  t.bcast_others <-
    (fun msg ->
      for dst = 0 to t.cfg.Config.n - 1 do
        if dst <> t.me then t.tr.send ~dst msg
      done);
  t.bcast_all <-
    (fun msg ->
      for dst = 0 to t.cfg.Config.n - 1 do
        t.tr.send ~dst msg
      done);
  t.timer <- Some (Sim.Timer.create engine ~on_expire:(fun () -> try_close_round t));
  t

let handle t ~src msg = on_message t ~src msg

let network_transport net ~me =
  {
    engine = Net.Network.engine net;
    n = Net.Network.n net;
    send = (fun ~dst msg -> Net.Network.send net ~src:me ~dst msg);
    halted = (fun () -> Net.Network.is_crashed net me);
  }

let create ?store cfg net ~me =
  let t = create_with_transport ?store cfg (network_transport net ~me) ~me in
  (* One latch of (now, sink, classification) per broadcast, against
     per-destination [send]'s n repetitions — with the per-destination
     event sequence (Send, then the oracle's verdict, then Sched/Drop)
     preserved exactly. *)
  t.bcast_others <- (fun msg -> Net.Network.broadcast net ~src:me msg);
  t.bcast_all <- (fun msg -> Net.Network.broadcast_all net ~src:me msg);
  Net.Network.set_handler net me (fun ~src msg -> on_message t ~src msg);
  t

let start t =
  (* Everything scheduled below is created by this process. *)
  Sim.Engine.set_rank t.engine t.me;
  Sim.Timer.set (timer_exn t) t.cfg.Config.initial_timeout;
  (* Processes start their sending tasks at unrelated instants (§3: no
     relation between send times of different processes). *)
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.cfg.Config.beta)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) sending_task
    { node = t; epoch = t.sending_epoch }

(* Crash–recovery (paper §1.3): the process rejoins with its persisted
   state — [susp_level], round counters, suspicion history all survive the
   crash untouched; only [r_rn] is re-seated by the catch-up rule above.
   The caller must un-crash the transport first ([Net.Network.recover]). *)
let recover t =
  Sim.Engine.set_rank t.engine t.me;
  t.catch_up <- true;
  t.sending_epoch <- t.sending_epoch + 1;
  Sim.Timer.set (timer_exn t) t.cfg.Config.initial_timeout;
  let offset = Dstruct.Rng.int t.rng (max 1 (Sim.Time.to_us t.cfg.Config.beta)) in
  Sim.Engine.call_after t.engine (Sim.Time.of_us offset) sending_task
    { node = t; epoch = t.sending_epoch }

(* A partition survivor can strand the same way a crashed process does, only
   slower: sending rounds run ahead of receiving rounds, so [rec_from] holds a
   deep buffer of future-tagged ALIVEs and the node keeps closing rounds from
   it long after the cut. The rounds whose ALIVEs were sent *during* the cut
   form a gap that buffer never covers — when [r_rn] reaches the first gap
   round, line 8's quorum is unreachable forever. The heal therefore re-seats
   [r_rn] with the same catch-up rule recovery uses; the sending task never
   stopped, so nothing else needs restarting. *)
let resync t = t.catch_up <- true

let susp_level t = Array.sub t.susp t.base t.cfg.Config.n
let susp_level_get t k =
  if k < 0 || k >= t.cfg.Config.n then
    invalid_arg "Node.susp_level_get: pid out of range";
  t.susp.(t.base + k)
let sending_round t = t.s_rn
let receiving_round t = t.r_rn
let max_timeout_armed t = t.max_timeout_armed
let max_susp_level_seen t = t.max_susp_seen
let local_increments t = t.local_increments
let lattice_invariant_holds t = max_susp t - min_susp t <= 1

(* Logical count: table entries plus the collapsed-full window — what the
   table would hold without the collapse, so E3's boundedness column (and
   [max_round_state]) measure the algorithm, not the representation. *)
let round_state_cardinal t =
  Dstruct.Rounds.cardinal t.rec_from
  + max 0 (t.full_upto - t.r_rn)
  + Dstruct.Rounds.cardinal t.suspicions

let retained_round_entries t =
  Dstruct.Rounds.cardinal t.rec_from + Dstruct.Rounds.cardinal t.suspicions
