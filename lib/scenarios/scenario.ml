type pid = int

type mode = Timely | Winning

type regime =
  | Full_timely
  | T_source of { center : pid }
  | Moving_source of { center : pid }
  | Message_pattern of { center : pid }
  | Combined of { center : pid }
  | Rotating_star of { center : pid }
  | Intermittent_star of { center : pid; d : int }
  | Growing_star of { center : pid; d : int; g_step : Sim.Time.t }
  | Growing_gaps of { center : pid; d : int; f_step : int }
  | Failover of { first : pid; second : pid; switch : int }
  | Chaos

let regime_name = function
  | Full_timely -> "full-timely"
  | T_source _ -> "t-source"
  | Moving_source _ -> "moving-source"
  | Message_pattern _ -> "message-pattern"
  | Combined _ -> "combined"
  | Rotating_star _ -> "rotating-star"
  | Intermittent_star _ -> "intermittent-star"
  | Growing_star _ -> "growing-star"
  | Growing_gaps _ -> "growing-gaps"
  | Failover _ -> "failover"
  | Chaos -> "chaos"

type params = {
  n : int;
  t : int;
  beta : Sim.Time.t;
  delta : Sim.Time.t;
  min_delay : Sim.Time.t;
  async_base : Sim.Time.t;
  async_growth : float;
  rn0 : int;
  order_gap : Sim.Time.t;
  victim_block0 : int;
  victim_block_step : int;
  victim_delay : Sim.Time.t;
}

let default_params ~n ~t ~beta =
  {
    n;
    t;
    beta;
    delta = Sim.Time.of_ms 2;
    min_delay = Sim.Time.of_us 100;
    async_base = Sim.Time.of_ms 30;
    async_growth = 0.;
    rn0 = 20;
    order_gap = beta;
    victim_block0 = 4;
    victim_block_step = 1;
    victim_delay = Sim.Time.of_sec 3600;
  }

(* Star plans as flat byte rows: [n] point codes indexed by destination
   pid (0 = not a point, 1 = timely, 2 = winning), so the oracle's
   per-message lookup is one byte load. The fixed-set regimes (Full_timely's
   Q is empty) read the one row [create] builds and are in S from rn0 on.
   Rotating and intermittent regimes keep a round-major table: row [rn] at
   byte [rn * (n + 1)], its last byte the S flag, drawn in round order. *)
let point_timely = 1
let point_winning = 2

type t = {
  p : params;
  regime : regime;
  plan_rng : Dstruct.Rng.t;  (* dedicated stream: draws happen in rn order *)
  (* Jitter streams, one per executor ([delay_rngs.(at)]): a message's
     delay draw comes from the stream of the process whose code performs
     it — the sender on the direct path, the relay on a routed hop — so
     each stream's draw sequence is a pure function of that process's
     local computation, never of how processes interleave. This is the
     interleaving-invariance DESIGN.md §18's intra-run parallel mode
     rests on; plans ([plan_rng]) stay a single stream because their
     draws are forced into round order by the high-water marks below. *)
  delay_rngs : Dstruct.Rng.t array;
  stride : int;  (* n + 1: a row's point codes, then its S flag *)
  (* The fixed set's row, or the round-major table, allocated on first
     use and grown by doubling. *)
  mutable rows : Bytes.t;
  mutable rows_upto : int;  (* rounds < this have rows (table regimes) *)
  mutable s_next : int;  (* next round to be put in S (intermittent) *)
  draw : int array;  (* scratch: the non-center pids a row shuffles *)
  mutable block_starts : int array;  (* block_starts.(k) = first rn of block k *)
  mutable blocks : int;  (* number of valid entries in block_starts *)
  mutable memo_block_rn : int;  (* round of [memo_block]; -1 = empty *)
  mutable memo_block : int;
  (* Adaptive adversary hook (Fault.Injector): when >= 0, this process is
     the victim instead of the block rotation — its ALIVEs are delayed
     beyond the horizon to every receiver. The assumption's protected
     arms (timely/winning star points) are untouched, so under A'-style
     regimes the adversary can chase leaders but never violate the
     promise about the center. *)
  mutable victim_override : pid;
}

(* The center in charge of round [rn] (failover switches centers). *)
let center_at_round regime rn =
  match regime with
  | Full_timely | Chaos -> None
  | T_source { center }
  | Moving_source { center }
  | Message_pattern { center }
  | Combined { center }
  | Rotating_star { center } -> Some center
  | Intermittent_star { center; _ } -> Some center
  | Growing_star { center; _ } -> Some center
  | Growing_gaps { center; _ } -> Some center
  | Failover { first; second; switch } ->
      Some (if rn < switch then first else second)

(* [center_at_round] without the option box, for the per-message oracle
   and checker paths; only called for regimes that have a center. *)
let regime_center_pid regime rn =
  match regime with
  | T_source { center }
  | Moving_source { center }
  | Message_pattern { center }
  | Combined { center }
  | Rotating_star { center }
  | Intermittent_star { center; _ }
  | Growing_star { center; _ }
  | Growing_gaps { center; _ } -> center
  | Failover { first; second; switch } -> if rn < switch then first else second
  | Full_timely | Chaos -> invalid_arg "Scenario.center_pid: no center"

let center_of_regime regime = center_at_round regime 1

(* The draws of [Rng.sample plan_rng t others], [others] being the n - 1
   non-center pids listed ascending: one Fisher-Yates shuffle of them all,
   whose first [t] entries are the star's points in draw order. *)
let shuffle_others ~n ~center rng draw =
  let k = ref 0 in
  for j = 0 to n - 1 do
    if j <> center then begin
      draw.(!k) <- j;
      incr k
    end
  done;
  Dstruct.Rng.shuffle_in_place rng draw

(* Point modes, drawn once per point in draw order. The mixed regimes
   flip a coin; the moving source flips it too — its rows draw what the
   rotating star's do — but keeps every point timely. *)
let timely_point _ = point_timely
let winning_point _ = point_winning
let coin_point rng = if Dstruct.Rng.bool rng then point_timely else point_winning

let coin_timely_point rng =
  ignore (Dstruct.Rng.bool rng);
  point_timely

(* Draw one star's point codes into [rows] at byte [off]. *)
let draw_row ~n ~t ~center ~mode rng draw rows off =
  shuffle_others ~n ~center rng draw;
  for i = 0 to t - 1 do
    Bytes.set rows (off + draw.(i)) (Char.chr (mode rng))
  done

let create p regime ~seed =
  if p.n < 2 then invalid_arg "Scenario.create: n < 2";
  if p.t < 0 || p.t >= p.n then invalid_arg "Scenario.create: t out of range";
  (match regime with
  | Failover { first; second; switch } ->
      if first < 0 || first >= p.n || second < 0 || second >= p.n then
        invalid_arg "Scenario.create: center out of range";
      if first = second then invalid_arg "Scenario.create: equal centers";
      if switch <= p.rn0 then invalid_arg "Scenario.create: switch <= rn0"
  | _ -> (
      match center_of_regime regime with
      | Some c when c < 0 || c >= p.n ->
          invalid_arg "Scenario.create: center out of range"
      | Some _ | None -> ()));
  let root = Dstruct.Rng.create seed in
  let plan_rng = Dstruct.Rng.split root in
  (* Split in pid order, so the streams are a function of (seed, n). *)
  let delay_rngs =
    let a = Array.make p.n (Dstruct.Rng.split root) in
    for i = 1 to p.n - 1 do
      a.(i) <- Dstruct.Rng.split root
    done;
    a
  in
  let draw = Array.make (p.n - 1) 0 in
  let fixed mode center =
    let row = Bytes.make p.n '\000' in
    draw_row ~n:p.n ~t:p.t ~center ~mode plan_rng draw row 0;
    row
  in
  let rows =
    match regime with
    | T_source { center } -> fixed timely_point center
    | Message_pattern { center } -> fixed winning_point center
    | Combined { center } -> fixed coin_point center
    | Full_timely -> Bytes.make p.n '\000'
    | Moving_source { center } ->
        (* A fixed set drawn as for T_source and never read: the pinned
           plan streams begin with it. *)
        shuffle_others ~n:p.n ~center plan_rng draw;
        Bytes.empty
    | Rotating_star _ | Intermittent_star _ | Growing_star _ | Growing_gaps _
    | Failover _ | Chaos -> Bytes.empty
  in
  let block_starts = Array.make 64 0 in
  block_starts.(0) <- 1;
  {
    p;
    regime;
    plan_rng;
    delay_rngs;
    stride = p.n + 1;
    rows;
    rows_upto = 1;
    s_next = p.rn0;
    draw;
    block_starts;
    blocks = 1;
    memo_block_rn = -1;
    memo_block = 0;
    victim_override = -1;
  }

let params t = t.p
let regime t = t.regime
let center t = center_of_regime t.regime
let center_at t rn = center_at_round t.regime rn
let center_pid t rn = regime_center_pid t.regime rn

let set_victim_override t p =
  if p < -1 || p >= t.p.n then
    invalid_arg "Scenario.set_victim_override: pid out of range";
  t.victim_override <- p

(* One table row: the star's points, then the S flag. *)
let table_row t ~center ~mode rn =
  let off = rn * t.stride in
  draw_row ~n:t.p.n ~t:t.p.t ~center ~mode t.plan_rng t.draw t.rows off;
  Bytes.set t.rows (off + t.p.n) '\001'

(* Intermittent regimes draw a row only for rounds in S: the gap after an
   S round [s] is uniform in [1, bound] — a constant [d], or growing for
   Growing_gaps. *)
let intermittent_row t ~center rn bound =
  if rn = t.s_next then begin
    table_row t ~center ~mode:coin_point rn;
    t.s_next <- rn + Dstruct.Rng.int_in t.plan_rng 1 (max 1 bound)
  end

(* Extend the table through round [rn], drawing rows in increasing round
   order (the plan stream's draws are order-sensitive). Rotating regimes
   draw a row for every round >= rn0, a failover's with the center in
   charge of that round. *)
let draw_upto t rn =
  let need = (rn + 1) * t.stride in
  if need > Bytes.length t.rows then begin
    let rows = Bytes.make (max need (2 * Bytes.length t.rows)) '\000' in
    Bytes.blit t.rows 0 rows 0 (Bytes.length t.rows);
    t.rows <- rows
  end;
  while t.rows_upto <= rn do
    let this = t.rows_upto in
    (if this >= t.p.rn0 then
       match t.regime with
       | Moving_source { center } ->
           table_row t ~center ~mode:coin_timely_point this
       | Rotating_star { center } -> table_row t ~center ~mode:coin_point this
       | Failover _ ->
           table_row t
             ~center:(regime_center_pid t.regime this)
             ~mode:coin_point this
       | Intermittent_star { center; d } | Growing_star { center; d; _ } ->
           intermittent_row t ~center this d
       | Growing_gaps { center; d; f_step } ->
           intermittent_row t ~center this (d + (f_step * (this / 256)))
       | Full_timely | T_source _ | Message_pattern _ | Combined _ | Chaos ->
           ());
    t.rows_upto <- this + 1
  done

(* Byte offset of round [rn]'s row in [t.rows], or [-1] when [rn] is
   outside S. Senders drift apart by whole rounds, so the oracle's lookups
   interleave rounds; every one is index arithmetic. *)
let row t rn =
  match t.regime with
  | Chaos -> -1
  | Full_timely | T_source _ | Message_pattern _ | Combined _ ->
      if rn >= 1 && rn >= t.p.rn0 then 0 else -1
  | Moving_source _ | Rotating_star _ | Failover _ | Intermittent_star _
  | Growing_star _ | Growing_gaps _ ->
      if rn < 1 then -1
      else begin
        if rn >= t.rows_upto then draw_upto t rn;
        let off = rn * t.stride in
        if Bytes.get t.rows (off + t.p.n) = '\000' then -1 else off
      end

let in_s t rn = row t rn >= 0

let q_set t rn =
  let off = row t rn in
  let q = ref [] in
  if off >= 0 then
    for p = t.p.n - 1 downto 0 do
      let code = Char.code (Bytes.get t.rows (off + p)) in
      if code = point_timely then q := (p, Timely) :: !q
      else if code = point_winning then q := (p, Winning) :: !q
    done;
  !q

(* The window-widening function f of the A_{f,g} model: the algorithm that
   knows it passes it to [Fig3_fg]. Conservative: at least the gap bound. *)
let f_function t rn =
  match t.regime with
  | Growing_gaps { d; f_step; _ } -> d + (f_step * (rn / 256))
  | Full_timely | T_source _ | Moving_source _ | Message_pattern _
  | Combined _ | Rotating_star _ | Intermittent_star _ | Growing_star _
  | Failover _ | Chaos -> 0

let g_function t rn =
  match t.regime with
  | Growing_star { g_step; _ } ->
      (* Quadratic growth: the algorithms' adaptive timeouts grow at most
         linearly per round (one suspicion level a round), so closure times
         grow at most quadratically with a [timeout_unit/2] coefficient; a
         quadratic g with a larger coefficient cannot be adapted away
         without knowing it. *)
      Sim.Time.of_us (Sim.Time.to_us g_step * (rn / 8) * (rn / 8))
  | Full_timely | T_source _ | Moving_source _ | Message_pattern _
  | Combined _ | Rotating_star _ | Intermittent_star _ | Growing_gaps _
  | Failover _ | Chaos -> Sim.Time.zero

(* ---- victim blocks ----

   The destabilizing adversary: simulated time is cut into blocks of rounds
   with growing lengths (block k spans victim_block0 + k * victim_block_step
   rounds); in each block one "victim" process's ALIVE messages are delayed
   beyond any realistic horizon, making it look crashed. Rotating the victim
   keeps every process's suspicion level growing forever, so no algorithm can
   stabilize unless an assumption protects some process. Growing block
   lengths matter: with fixed blocks, Figure 2's window condition would cap
   every victim's level at the block length and chaos would accidentally
   stabilize. *)

let block_len t k = t.p.victim_block0 + (k * t.p.victim_block_step)

(* Top-level on purpose: as a local [let rec] capturing [t] and [rn] this
   was a closure allocation per call — and [block_of] runs once per
   background message, making it one of the hottest allocation sites in the
   whole simulator. *)
let rec block_search starts rn lo hi =
  (* invariant: starts.(lo) <= rn and (hi = blocks or rn < starts.(hi)) *)
  if hi - lo <= 1 then lo
  else begin
    let mid = (lo + hi) / 2 in
    if starts.(mid) <= rn then block_search starts rn mid hi
    else block_search starts rn lo mid
  end

(* One-entry memo in front of the binary search: the oracle calls this for
   every message, and consecutive messages overwhelmingly share a round
   (sends of one round cluster in time), so most calls skip the O(log
   blocks) search. Pure function of [rn] — the memo cannot change any
   answer. *)
let block_of t rn =
  if rn = t.memo_block_rn then t.memo_block
  else begin
    while t.block_starts.(t.blocks - 1) + block_len t (t.blocks - 1) <= rn do
      if t.blocks = Array.length t.block_starts then begin
        let bigger = Array.make (2 * t.blocks) 0 in
        Array.blit t.block_starts 0 bigger 0 t.blocks;
        t.block_starts <- bigger
      end;
      t.block_starts.(t.blocks) <-
        t.block_starts.(t.blocks - 1) + block_len t (t.blocks - 1);
      t.blocks <- t.blocks + 1
    done;
    let b = block_search t.block_starts rn 0 t.blocks in
    t.memo_block_rn <- rn;
    t.memo_block <- b;
    b
  end

(* Victim among all n processes (chaos, and the pre-rn0 anarchy of every
   regime). *)
let victim_all t rn = block_of t rn mod t.p.n

(* Victim rotating over the non-center processes (the assumption protects
   only the center, and only at the star's points). *)
let victim_among_others t ~center rn =
  let k = block_of t rn mod (t.p.n - 1) in
  if k < center then k else k + 1

(* ---- delay policies (all in microseconds) ---- *)

let us = Sim.Time.to_us

let victim_delay_us t rn = us t.p.victim_delay + (rn * us t.p.beta)

(* Every process has sent its round [rn] ALIVE by this time (offset < beta,
   period <= beta). *)
let u_bound t rn = (rn + 1) * us t.p.beta

(* The winning center's extra delay: must grow faster than any timeout a
   timer-based algorithm can adapt to. Adaptive timeouts grow at most
   linearly in the round number (at most one suspicion level per round), so
   closure times grow at most quadratically; the lag's quadratic term has a
   larger coefficient than any such adaptation, keeping the winning side
   genuinely time-free. *)
let winning_lag t rn =
  (* Constant in the star regimes: the arrival target U(rn) + lag keeps pace
     with the sending rate, so receiving rounds do not drift behind sending
     rounds (a growing lag would grant every process ever-growing slack and
     mask genuinely growing bounds, E7). The center's winning delay is still
     unbounded — its own send times run up to [jitter * beta] per round ahead
     of U(rn). Only the pure message-pattern regime adds growth: there the
     lag must outpace any quadratic closure-time adaptation so that nothing
     timer-based can be learned (see E4's timer-only column). *)
  let base = 4 * us t.p.delta in
  match t.regime with
  | Message_pattern _ ->
      base + (rn * us t.p.beta / 4) + (rn * rn * us t.p.beta / 32)
  | _ -> base

(* Timely delays sample the top quarter of the allowed interval: still
   within the promised bound, but maximally adversarial — a generous oracle
   would hide the difference between delta and delta + g(rn). *)
(* The delay helpers draw from [rng] — the executor's jitter stream,
   selected once per message in [delay_us_of]. *)
let timely_delay t rng rn =
  let bound = us t.p.delta + us (g_function t rn) in
  let lo = max (us t.p.min_delay) (bound * 3 / 4) in
  lo + Dstruct.Rng.int rng (max 1 (bound - lo))

let async_delay t rng ~now =
  let cap =
    (* The float conversions run per message; the default (no growth)
       skips them. *)
    if t.p.async_growth = 0. then us t.p.async_base
    else
      us t.p.async_base
      + int_of_float (t.p.async_growth *. float_of_int (us now))
  in
  let lo = us t.p.min_delay in
  lo + Dstruct.Rng.int rng (max 1 cap)

(* Center's winning ALIVE(rn): arrive exactly at the target U(rn)+B(rn),
   which is both late (not timely) and earlier than every competitor. *)
let winning_center_delay t ~now rn =
  let target = u_bound t rn + winning_lag t rn in
  max (us t.p.min_delay) (target - us now)

(* Competitor ALIVE(rn) to a winning point: no earlier than the center's
   target plus the order gap (plus jitter so competitors are not
   simultaneous). [base] is the delay the competitor would have had anyway
   (possibly a victim delay, which dominates and preserves the order). *)
let winning_competitor_delay t rng ~now ~base rn =
  let target =
    u_bound t rn + winning_lag t rn + us t.p.order_gap
    + Dstruct.Rng.int rng (max 1 (us t.p.order_gap))
  in
  max base (target - us now)

(* Unconstrained ALIVE(rn): victims look crashed, everyone else is merely
   asynchronous. [center] is [-1] for the center-less regimes (the option
   box would cost two words per message on the oracle path). *)
let background_delay t rng ~now ~src ~center rn =
  if t.victim_override >= 0 then
    if src = t.victim_override then victim_delay_us t rn
    else async_delay t rng ~now
  else if rn < t.p.rn0 then
    if src = victim_all t rn then victim_delay_us t rn
    else async_delay t rng ~now
  else if center < 0 then
    if src = victim_all t rn then victim_delay_us t rn
    else async_delay t rng ~now
  else if src <> center && src = victim_among_others t ~center rn then
    victim_delay_us t rn
  else async_delay t rng ~now

let alive_delay t rng ~now ~src ~dst rn =
  match t.regime with
  | Full_timely ->
      if rn >= t.p.rn0 then timely_delay t rng rn
      else background_delay t rng ~now ~src ~center:(-1) rn
  | Chaos -> background_delay t rng ~now ~src ~center:(-1) rn
  | T_source _ | Moving_source _ | Message_pattern _ | Combined _
  | Rotating_star _ | Intermittent_star _ | Growing_star _ | Growing_gaps _
  | Failover _ -> (
      let center = regime_center_pid t.regime rn in
      let off = row t rn in
      if off >= 0 then begin
        let point = Char.code (Bytes.get t.rows (off + dst)) in
        if point = point_timely && src = center then timely_delay t rng rn
        else if point = point_winning && src = center then
          winning_center_delay t ~now rn
        else if point = point_winning then
          let base = background_delay t rng ~now ~src ~center rn in
          winning_competitor_delay t rng ~now ~base rn
        else if src = center then begin
          if t.victim_override = center then
            (* Adaptive adversary targeting the center: only its
               non-protected messages can be delayed. *)
            victim_delay_us t rn
          else
            match t.regime with
            | Message_pattern _ | Growing_star _ ->
                (* The purely time-free adversary: outside the star's
                   points the center's messages are arbitrarily late, so
                   nothing timer-based can be learned about it. (Round
                   closure still reaches n-t ALIVEs: the receiver itself
                   plus the n-2-t other non-victim senders.) *)
                victim_delay_us t rn
            | _ -> async_delay t rng ~now
        end
        else background_delay t rng ~now ~src ~center rn
      end
      else if rn >= t.p.rn0 && src = center then
        (* Outside S the assumption is silent about the center: the adversary
           victimizes it, which is exactly what separates A from A'. *)
        victim_delay_us t rn
      else background_delay t rng ~now ~src ~center rn)

(* [rn] is the message's round tag, or [-1] for unconstrained messages
   (ALIVE rounds start at 1, so -1 is free). [at] selects the executor's
   jitter stream. *)
let oracle_us t ~round_of ~now ~seq:_ ~at ~src ~dst msg =
  if src = dst then us t.p.min_delay
  else
    let rn = round_of msg in
    let rng = t.delay_rngs.(at) in
    if rn < 0 then
      match t.regime with
      | Full_timely -> timely_delay t rng 0
      | _ -> async_delay t rng ~now
    else alive_delay t rng ~now ~src ~dst rn

(* Every delay path above floors at [min_delay]: [timely_delay] and
   [async_delay] take [max]/[lo] against it, the winning targets clamp
   with it, victim delays dwarf it, and self-sends are exactly it. That
   floor is what certifies the conservative window (DESIGN.md §18). *)
let lookahead_us t = us t.p.min_delay

let arrival_bound ?(hops = 1) t rn =
  if hops < 1 then invalid_arg "Scenario.arrival_bound: hops must be >= 1";
  let u = u_bound t rn in
  let async_cap =
    us t.p.async_base
    + int_of_float (t.p.async_growth *. float_of_int u)
  in
  let winning_cap = winning_lag t rn + (3 * us t.p.order_gap) in
  let timely_cap = us t.p.delta + us (g_function t rn) in
  (* Routed topologies redraw the oracle per hop, so the worst case is
     [hops] maximal draws end to end; the factor keeps the bound monotone
     in [rn] (each cap is) and in [hops]. *)
  Sim.Time.of_us (u + (hops * max async_cap (max winning_cap timely_cap)))

(* The adversary's projection: which messages the round-tagged delay
   policies (victim blocks, timely/winning star points) apply to. ALIVE for
   the Figure family; HEARTBEAT and AGGREGATE for the lean variant — they
   are its liveness-bearing traffic and must face the same adversary, or
   E12's shootout would compare algorithms under different worlds. SUSPICION
   and ACCUSE are asynchronous control messages: no assumption constrains
   them. Distinct from {!Omega.Message.info}, the checker-facing classifier,
   which tags only ALIVE — the checker verifies Figure 3's arrival pattern
   and must not key on relay traffic. *)
let round_rn_of_omega = function
  | Omega.Message.Alive { rn; _ }
  | Omega.Message.Heartbeat { rn }
  | Omega.Message.Aggregate { rn; _ } -> rn
  | Omega.Message.Suspicion _ | Omega.Message.Accuse _ -> -1

let describe t =
  let base =
    Printf.sprintf "%s (n=%d t=%d rn0=%d)" (regime_name t.regime) t.p.n t.p.t
      t.p.rn0
  in
  match t.regime with
  | Intermittent_star { center; d } ->
      Printf.sprintf "%s center=%d D=%d" base center d
  | Growing_star { center; d; _ } ->
      Printf.sprintf "%s center=%d D=%d growing-g" base center d
  | Growing_gaps { center; d; f_step } ->
      Printf.sprintf "%s center=%d D0=%d f-step=%d" base center d f_step
  | T_source { center }
  | Moving_source { center }
  | Message_pattern { center }
  | Combined { center }
  | Rotating_star { center } -> Printf.sprintf "%s center=%d" base center
  | Failover { first; second; switch } ->
      Printf.sprintf "%s %d->%d at rn %d" base first second switch
  | Full_timely | Chaos -> base
