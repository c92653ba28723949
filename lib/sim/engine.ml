(* [live] counts scheduled, not-yet-fired, not-cancelled events. The
   handle's fired state guards the idempotence cases: cancel after the
   event ran (or after a prior cancel) must not decrement again.

   Events are packed [(fn, arg)] pairs rather than closures: a closure
   capturing k variables costs k+2 words per schedule, while [call_after]
   with a static [fn] and a pre-existing [arg] costs nothing once the slot
   store below is warm. A slot stores the pair type-erased (an erased
   payload applied to an [Obj.t -> unit] function — safe because the two
   are only ever written together by [new_slot], whose callers take them
   at a common type). Fire-and-forget events all share the engine's
   [anon] handle (never exposed, never cancelled), so only cancellable
   schedules allocate a handle. *)

(* [hstate]: 0 = live, 1 = fired, 2 = cancelled — one word instead of two
   bools, because a handle is allocated per cancellable schedule (every
   {!Timer} re-arm) and [hcidx] below already costs the word back. *)
type handle = {
  mutable hstate : int;
  (* The event's creation index, mirrored here so the slot's [cx] word can
     hold the handle alone (see the store). Handles are per-schedule, so
     the field is written once, by [enqueue]. *)
  mutable hcidx : int;
}

(* Canonical event order (DESIGN.md §18): every event is keyed by
   [(time_us << rank_bits) | rank], with a per-rank creation index as the
   residual tie-break. The rank is the {e creator}'s identity — process
   pid + 1 for events created while that process's code runs
   ([set_rank]), 0 for setup/system chains, [harness_rank] (the top of the
   rank space, reserved — no pid maps to it) for post-start harness work
   such as the sampler — so the total order [(key, cidx)] is a pure
   function of the simulated computation, never of scheduler internals or
   (in the intra-run parallel mode) of which domain executed what. Same-µs
   ties order by rank, then by per-creator creation order: setup chains at
   a timestamp run before process events at the same timestamp, harness
   chains after them, in both modes. The reservation also keeps every
   rank's counter owned by exactly one replica when a run is sharded —
   pids draw on their owning shard, ranks 0 and [harness_rank] only on
   the control replica. *)
let rank_bits = 11
let rank_mask = (1 lsl rank_bits) - 1
let harness_rank = rank_mask
let max_pid = rank_mask - 2

(* ---- The slot store (DESIGN.md §11, §13) ----
   A pending event is one int, its slot. The slot's key, link, function,
   argument and cx word live at the same index of five parallel columns,
   so the wheel's bucket lists and the freelist are int links: pushes,
   cascades and pops write no pointers, hence pay no [caml_modify]. Only
   the fn, arg and cx stores keep the write barrier.

   Columns grow in fixed [chunk_size] chunks that are allocated once and
   never copied (slot [s] lives at chunk [s lsr chunk_bits], index
   [s land chunk_mask]); only the small per-column chunk directories
   double. Growing flat columns by doubling leaves the old copies as
   garbage at the moment a run's peak heap is read.

   [cx] fuses the creation index and the cancellation handle: an
   immediate int — the per-creator creation index — for the
   fire-and-forget majority (which can never be cancelled), or the
   [handle], which then carries the index in [hcidx]. A free slot holds
   fn = [ignore_obj], arg = [()] and cx = 0: the store never retains a
   popped payload, so a snapshot carries no dead one. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let nil = -1

(* Element type of the argument column. [Obj.t] is abstract, so an
   [Obj.t array] would compile to generic array accesses that test for a
   flat float array on every load and store; a variant type is known to
   be an address or an immediate, so the column gets plain accesses. The
   constructor is never applied: payloads are stored through
   [Obj.magic]. *)
type payload = Payload of int [@@warning "-37"]

(* One order over the slots: the wheel keys on the packed key (µs times
   rank: no two distinct (time, creator) pairs share a key), is monotone —
   keys below the last popped one are rejected (see [enqueue]) — and pops
   equal keys FIFO. Every key's creation indices come from that key's
   rank counter in insertion order ([next_cidx]), so FIFO among equal keys
   is ascending creation index, and the pop order is the canonical
   [(key, cidx)] order. [fire] checks that on every event. *)
type t = {
  rng : Dstruct.Rng.t;
  mutable now : Time.t;
  mutable executed : int;
  mutable live : int;  (* scheduled, not fired and not cancelled *)
  mutable sink : Obs.Sink.t;
  anon : handle;  (* shared by all fire-and-forget events *)
  (* Creation context: [cur_rank] is the rank stamped on events scheduled
     right now (0 = harness; pid + 1 while that process's code runs), and
     [counters.(r)] is rank r's next creation index. *)
  mutable cur_rank : int;
  mutable counters : int array;
  (* Execution context, latched by [exec] from the popped slot: the
     canonical identity of the event currently (or last) running.
     Intra-run shard buffers tag emissions with it so a barrier merge can
     re-fold the global stream in canonical order (DESIGN.md §18),
     [exec_key] is the floor future keys are clamped to, so the wheel's
     monotonicity holds by construction, and the pair is what [fire]
     checks the next event against. *)
  mutable exec_key : int;
  mutable exec_cidx : int;
  (* Slot store: chunk directories of the five columns, the number of
     chunks in use, and the freelist head (linked through [links]). *)
  mutable keys : int array array;
  mutable links : int array array;
  mutable fns : (Obj.t -> unit) array array;
  mutable args : payload array array;
  mutable cxs : handle array array;
  mutable chunks : int;
  mutable free : int;
  (* Hierarchical timing wheel (Varghese & Lauck) over slots, radix 256,
     8 levels — the levels' digit spans cover the full 62-bit key range,
     so there is no overflow structure and no revolution wrap. Placement
     invariant: a slot with key [k] always lives at
     [level = highest digit of (k lxor cursor)] in bucket
     [digit k level]. The invariant is canonical — a function of [k] and
     the cursor only, not of insertion time — because the cursor's digit
     at level [l] changes to a new value exactly when the bucket at
     [(l, new digit)] is cascaded down (see [wheel_pop]), so no slot whose
     digit matches the cursor's can remain at that level. Canonical
     placement is what makes the FIFO tie-break work: all slots with
     equal keys sit in the same bucket list at every moment, in insertion
     order (pushes append; cascades walk in order and append), so the
     head of the final level-0 bucket is always the oldest. *)
  heads : int array;  (* levels * 256 bucket list heads, [nil] if empty *)
  tails : int array;
  occ : int array;  (* occupancy bitmap: 8 x 32-bit words per level *)
  mutable cursor : int;  (* key of the last popped slot *)
  mutable size : int;  (* committed slots in the wheel *)
  (* Memo of the last [locate] scan, so the peek-then-pop loops scan once
     per event. Any push invalidates it. *)
  mutable cached : bool;
  mutable cached_key : int;
  mutable cached_level : int;
  mutable cached_bucket : int;
}

let ignore_obj (_ : Obj.t) = ()
let unit_payload : payload = Obj.magic ()
let no_cx : handle = Obj.magic 0

(* ------------------------------------------------------------ the store *)

(* Column accessors. Slot ids come only from [new_slot], so every index is
   in range by construction and the accesses skip bounds checks. *)
let[@inline] key_of t s =
  Array.unsafe_get
    (Array.unsafe_get t.keys (s lsr chunk_bits))
    (s land chunk_mask)

let[@inline] link_of t s =
  Array.unsafe_get
    (Array.unsafe_get t.links (s lsr chunk_bits))
    (s land chunk_mask)

let[@inline] set_link t s v =
  Array.unsafe_set
    (Array.unsafe_get t.links (s lsr chunk_bits))
    (s land chunk_mask) v

(* Append one chunk, threading its slots onto the (empty) freelist in
   index order. *)
let add_chunk t =
  let c = t.chunks in
  if c = Array.length t.keys then begin
    let cap = if c = 0 then 4 else 2 * c in
    let grow a =
      let b = Array.make cap [||] in
      Array.blit a 0 b 0 c;
      b
    in
    t.keys <- grow t.keys;
    t.links <- grow t.links;
    t.fns <- grow t.fns;
    t.args <- grow t.args;
    t.cxs <- grow t.cxs
  end;
  let base = c lsl chunk_bits in
  t.keys.(c) <- Array.make chunk_size 0;
  t.links.(c) <-
    Array.init chunk_size (fun i ->
        if i = chunk_size - 1 then t.free else base + i + 1);
  t.fns.(c) <- Array.make chunk_size ignore_obj;
  t.args.(c) <- Array.make chunk_size unit_payload;
  t.cxs.(c) <- Array.make chunk_size no_cx;
  t.chunks <- c + 1;
  t.free <- base

(* Take a slot off the freelist and write the event into it, link [nil]. *)
let new_slot t key fn arg cx =
  if t.free = nil then add_chunk t;
  let s = t.free in
  let c = s lsr chunk_bits and i = s land chunk_mask in
  let links = Array.unsafe_get t.links c in
  t.free <- Array.unsafe_get links i;
  Array.unsafe_set links i nil;
  Array.unsafe_set (Array.unsafe_get t.keys c) i key;
  Array.unsafe_set (Array.unsafe_get t.fns c) i fn;
  Array.unsafe_set (Array.unsafe_get t.args c) i arg;
  Array.unsafe_set (Array.unsafe_get t.cxs c) i cx;
  s

(* ------------------------------------------------------------ the wheel *)

let levels = 8
let buckets = levels * 256

(* Highest differing radix-256 digit of [x = key lxor cursor], [x <> 0]. *)
let level_of_xor x =
  if x >= 1 lsl 32 then
    if x >= 1 lsl 48 then (if x >= 1 lsl 56 then 7 else 6)
    else if x >= 1 lsl 40 then 5
    else 4
  else if x >= 1 lsl 16 then (if x >= 1 lsl 24 then 3 else 2)
  else if x >= 1 lsl 8 then 1
  else 0

let digit k l = (k lsr (8 * l)) land 0xff

(* ctz of a 32-bit value via de Bruijn multiplication. *)
let debruijn_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 bits =
  debruijn_table.(((bits land -bits) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

let set_bit t l b =
  let w = (l lsl 3) lor (b lsr 5) in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (b land 31))

let clear_bit t l b =
  let w = (l lsl 3) lor (b lsr 5) in
  t.occ.(w) <- t.occ.(w) land lnot (1 lsl (b land 31))

(* Smallest occupied bucket index [>= from] at level [l], or -1. All the
   recursive helpers below are top-level (not nested [let rec]) on
   purpose: a nested recursive function is a closure, and without flambda
   that is one allocation per call — on the per-event path. *)
let rec occ_scan occ l w0 from w =
  if w > 7 then -1
  else begin
    let bits = occ.((l lsl 3) lor w) in
    let bits = if w = w0 then bits land ((-1) lsl (from land 31)) else bits in
    if bits = 0 then occ_scan occ l w0 from (w + 1)
    else (w lsl 5) lor ctz32 bits
  end

let first_occupied t l ~from =
  if from > 255 then -1 else occ_scan t.occ l (from lsr 5) from (from lsr 5)

(* Append slot [s] (with link [nil]) to its canonical bucket. *)
let place t s =
  let k = key_of t s in
  let x = k lxor t.cursor in
  let l = if x = 0 then 0 else level_of_xor x in
  let b = digit k l in
  let i = (l lsl 8) lor b in
  if t.heads.(i) = nil then begin
    t.heads.(i) <- s;
    set_bit t l b
  end
  else set_link t t.tails.(i) s;
  t.tails.(i) <- s

let wheel_push t s =
  place t s;
  t.size <- t.size + 1;
  t.cached <- false

(* Locate the minimum key without mutating bucket contents: lowest level
   first (slots at level [l] share all digits above [l] with the cursor,
   so every key there is smaller than any key at a higher level); level 0
   scans from the cursor's digit inclusively (keys equal to the cursor are
   legal), higher levels exclusively (a bucket matching the cursor's digit
   would already have cascaded). At level 0 every slot of a bucket has the
   same key; at higher levels the bucket spans several keys, so walk the
   list for the minimum. *)
let rec list_min_key t s acc =
  if s = nil then acc
  else
    let k = key_of t s in
    list_min_key t (link_of t s) (if k < acc then k else acc)

let rec find_min t l =
  if l >= levels then assert false
  else begin
    let d = digit t.cursor l in
    let from = if l = 0 then d else d + 1 in
    match first_occupied t l ~from with
    | -1 -> find_min t (l + 1)
    | b ->
        let key =
          if l = 0 then (t.cursor land lnot 0xff) lor b
          else list_min_key t t.heads.((l lsl 8) lor b) max_int
        in
        t.cached <- true;
        t.cached_key <- key;
        t.cached_level <- l;
        t.cached_bucket <- b
  end

(* Callers check [size > 0]. *)
let locate t = if not t.cached then find_min t 0

let min_key t =
  locate t;
  t.cached_key

let rec redistribute t s =
  if s <> nil then begin
    let nx = link_of t s in
    set_link t s nil;
    place t s;
    redistribute t nx
  end

(* Detach the minimum slot. Cascade the minimum's bucket down until the
   minimum sits at level 0. The new cursor is the minimum key [k] itself:
   every slot of the cascaded bucket has key >= k and shares its digits at
   and above the bucket's level, so re-placement relative to [k] strictly
   descends. Walking the detached list in order and appending preserves
   insertion order. *)
let wheel_pop t =
  locate t;
  let k = t.cached_key in
  while t.cached_level > 0 do
    let l = t.cached_level and b = t.cached_bucket in
    let i = (l lsl 8) lor b in
    let head = t.heads.(i) in
    t.heads.(i) <- nil;
    t.tails.(i) <- nil;
    clear_bit t l b;
    t.cursor <- k;
    redistribute t head;
    (* The minimum's slots are now at level 0, bucket [digit k 0]; other
       slots may have landed at intermediate levels, all above [k]. *)
    t.cached_level <- 0;
    t.cached_bucket <- digit k 0
  done;
  t.cursor <- k;
  let b = t.cached_bucket in
  let s = t.heads.(b) in
  let nx = link_of t s in
  t.heads.(b) <- nx;
  if nx = nil then begin
    t.tails.(b) <- nil;
    clear_bit t 0 b
  end;
  t.size <- t.size - 1;
  t.cached <- false;
  s

(* ------------------------------------------------------------ the engine *)

let create ~seed () =
  let anon = { hstate = 0; hcidx = 0 } in
  {
    rng = Dstruct.Rng.create seed;
    now = Time.zero;
    executed = 0;
    live = 0;
    sink = Obs.Sink.null;
    anon;
    cur_rank = 0;
    counters = Array.make 8 0;
    exec_key = 0;
    exec_cidx = 0;
    keys = [||];
    links = [||];
    fns = [||];
    args = [||];
    cxs = [||];
    chunks = 0;
    free = nil;
    heads = Array.make buckets nil;
    tails = Array.make buckets nil;
    occ = Array.make (levels * 8) 0;
    cursor = 0;
    size = 0;
    cached = false;
    cached_key = 0;
    cached_level = 0;
    cached_bucket = 0;
  }

let now t = t.now
let rng t = t.rng
let sink t = t.sink
let set_sink t sink = t.sink <- sink

(* [set_rank t pid] declares that subsequently scheduled events are created
   by process [pid] — called at every entry point into process code whose
   executing event does not already carry the process's rank (message
   delivery at the receiver, hop forwarding at the relay, start/recover).
   Events executed from the queue re-establish their own creator's rank
   automatically ([exec]). *)
let set_rank t pid =
  if pid < 0 || pid > max_pid then
    invalid_arg "Engine.set_rank: pid out of range";
  let r = pid + 1 in
  if r >= Array.length t.counters then begin
    let a = Array.make (2 * (r + 1)) 0 in
    Array.blit t.counters 0 a 0 (Array.length t.counters);
    t.counters <- a
  end;
  t.cur_rank <- r

(* Switch to the reserved harness rank: called by the run driver after
   node start-up, before scheduling harness-side chains (the sampler), so
   those chains never share a creation counter with the last pid. *)
let set_harness_rank t =
  let r = harness_rank in
  if r >= Array.length t.counters then begin
    let a = Array.make (r + 1) 0 in
    Array.blit t.counters 0 a 0 (Array.length t.counters);
    t.counters <- a
  end;
  t.cur_rank <- r

(* The engine's clock arithmetic is on plain ints ([Time.t = int] is
   manifest): the library is compiled [-opaque] in dev builds, so every
   [Time.*] call would be an out-of-line call on the per-event path. *)
let before_now ~what t time =
  invalid_arg
    (Format.asprintf "Engine.%s: %a is before now (%a)" what Time.pp time
       Time.pp t.now)

(* Key/index assignment, shared by every scheduling path. The clamp to
   [exec_key] covers one legal corner: scheduling at the current µs from a
   context whose rank is below the executing event's (e.g. a test
   scheduling at [now] between runs, or a handler that lowered the rank).
   The clamp never changes the µs part (times in the past are rejected
   first). The creation index comes from the counter of the rank the
   {e key} carries — the creation rank itself unless the clamp was taken
   — so a clamped event draws after every index already issued at that
   key, the executing event's included: it sorts after everything queued
   there, which is the wheel's FIFO position. *)
(* Two separate int-returning helpers rather than one returning a pair:
   the hot path is allocation-free by contract and without flambda a
   tuple return boxes three minor words per scheduled event. *)
let next_key t (time : Time.t) =
  let key = (time lsl rank_bits) lor t.cur_rank in
  if key < t.exec_key then t.exec_key else key

let next_cidx t key =
  let r = key land rank_mask in
  let cidx = t.counters.(r) in
  t.counters.(r) <- cidx + 1;
  cidx

(* The canonical-order guard, shared by [fire] and [enqueue_committed]:
   [(key, cidx)] sorts strictly after the last executed event, or nothing
   has executed yet. Most events carry a key above the last one, so that
   test comes first. *)
let[@inline] after_executed t key cidx =
  key > t.exec_key
  || (key = t.exec_key && cidx > t.exec_cidx)
  || t.executed = 0

let out_of_order ~what ~why t key cidx =
  invalid_arg
    (Printf.sprintf
       "Engine.%s: event (key %d, cidx %d) sorts at or below the last \
        executed event (key %d, cidx %d); %s"
       what key cidx t.exec_key t.exec_cidx why)

(* The wheel is monotone: a key below its cursor is refused before a slot
   is taken. The cursor can lie above [exec_key] when a cancelled event
   was popped after the last fired one. *)
let check_cursor ~what t key =
  if key < t.cursor then
    invalid_arg
      (Printf.sprintf "Engine.%s: key %d below the wheel cursor %d" what key
         t.cursor)

(* Make a written slot poppable. *)
let insert t s =
  wheel_push t s;
  t.live <- t.live + 1

let emit_sched t (time : Time.t) =
  if Obs.Sink.wants t.sink Obs.Event.c_engine then
    Obs.Sink.emit t.sink (Obs.Event.Sched { now = t.now; at = time })

let enqueue : type a. t -> Time.t -> (a -> unit) -> a -> handle -> unit =
 fun t time fn arg h ->
  if time < t.now then before_now ~what:"schedule" t time;
  let key = next_key t time in
  check_cursor ~what:"schedule" t key;
  let cidx = next_cidx t key in
  (* Erasure: [fn] and [arg] arrive at a common type [a], so applying the
     erased function to the erased payload is well-typed by construction
     (likewise at every other [new_slot] call). *)
  let cx : handle =
    if h == t.anon then Obj.magic cidx
    else begin
      h.hcidx <- cidx;
      h
    end
  in
  insert t (new_slot t key (Obj.magic fn) (Obj.magic arg) cx);
  emit_sched t time

(* Static trampoline for the closure API: the closure is the [arg]. *)
let call_thunk (f : unit -> unit) = f ()

let schedule_at t time action =
  let h = { hstate = 0; hcidx = 0 } in
  enqueue t time call_thunk action h;
  h

let schedule_after t delay action = schedule_at t (t.now + delay) action
let call_at t time fn arg = enqueue t time fn arg t.anon
let call_after t delay fn arg = enqueue t (t.now + delay) fn arg t.anon

let schedule_call_after t delay fn arg =
  let h = { hstate = 0; hcidx = 0 } in
  enqueue t (t.now + delay) fn arg h;
  h

(* ---- Intra-run sharded execution support (DESIGN.md §18) ----
   A cross-shard event creation splits [call_after] in two: the creating
   shard stamps the event — drawing the exact canonical (key, cidx) and
   emitting the Sched that the local path would have emitted — and ships
   the pair with the payload; the owning shard [enqueue_committed]s it
   silently (no second Sched, no counter bump) when its next window
   drains the sealed outboxes.
   The union of both shards' observable actions is bit-identical to the
   sequential [call_after]. *)

(* Split like [next_key]/[next_cidx], for the same reason: a pair return
   would box on every cross-shard creation. *)
let stamp_key t time =
  if time < t.now then before_now ~what:"stamp_key" t time;
  emit_sched t time;
  next_key t time

let stamp_cidx = next_cidx

(* A committed event must sort after the last one executed here: the
   barrier's merge is only a replay of the sequential order if no
   cross-shard arrival lands inside a window that already ran, which is
   what the lookahead certifies. Refusing it here names the cause; [fire]
   would otherwise refuse the event later, when it popped. *)
let enqueue_committed : type a. t -> key:int -> cidx:int -> (a -> unit) -> a -> unit
    =
 fun t ~key ~cidx fn arg ->
  if not (after_executed t key cidx) then
    out_of_order ~what:"enqueue_committed"
      ~why:"the intra-run lookahead undercuts a real delay" t key cidx;
  check_cursor ~what:"enqueue_committed" t key;
  insert t (new_slot t key (Obj.magic fn) (Obj.magic arg) (Obj.magic cidx))

let executing_key t = t.exec_key
let executing_cidx t = t.exec_cidx

(* Earliest pending event's full canonical key (µs and creator rank), or
   -1 when the queue is empty. Peeks only: the wheel's cursor must not
   advance (the engine may legally decide not to pop at a window
   horizon). The intra-run driver interleaves the control replica's
   events with shard events by key, not just by µs. *)
let next_pending_key t = if t.size = 0 then -1 else min_key t

let next_pending_us t =
  let k = next_pending_key t in
  if k < 0 then -1 else k asr rank_bits

(* Advance the clock over an idle gap without running anything: barrier
   code (recovery, resync, fault application) computes relative delays
   from [now], which must read the barrier instant, not the last executed
   event's time. *)
let fast_forward t (time : Time.t) = if time > t.now then t.now <- time

let cancel t h =
  if h.hstate = 0 then begin
    h.hstate <- 2;
    t.live <- t.live - 1;
    if Obs.Sink.wants t.sink Obs.Event.c_engine then
      Obs.Sink.emit t.sink (Obs.Event.Cancel { now = t.now })
  end

let is_cancelled h = h.hstate = 2
let pending t = t.live
let executed t = t.executed

(* The executing event's creator rank becomes the creation context for
   whatever it schedules; deliver/forward override it to the receiving
   process's rank ([set_rank]) before running process code.

   The order check: an event must sort strictly after the one it succeeds
   as [(exec_key, exec_cidx)]. The wheel pops in that order by
   construction, so this costs a few int compares per event and turns a
   silent ordering bug — a placement shortcut, a broken FIFO cascade, a
   creation index drawn from the wrong counter — into an exception
   naming both events. *)
let fire t key cidx fn arg =
  if not (after_executed t key cidx) then
    out_of_order ~what:"fire" ~why:"the queue broke canonical order" t key cidx;
  t.live <- t.live - 1;
  let time = key asr rank_bits in
  assert (time >= t.now);
  t.now <- time;
  t.cur_rank <- key land rank_mask;
  t.exec_key <- key;
  t.exec_cidx <- cidx;
  t.executed <- t.executed + 1;
  if Obs.Sink.wants t.sink Obs.Event.c_engine then
    Obs.Sink.emit t.sink (Obs.Event.Fire { now = t.now });
  fn arg

(* [exec t s] latches every column of a popped slot, frees the slot, then
   fires. Latch-then-release, so the event's own schedules may reuse the
   slot, and the store never keeps a fired payload reachable. *)
let exec t s =
  let c = s lsr chunk_bits and i = s land chunk_mask in
  let key = Array.unsafe_get (Array.unsafe_get t.keys c) i in
  let fns = Array.unsafe_get t.fns c in
  let args = Array.unsafe_get t.args c in
  let cxs = Array.unsafe_get t.cxs c in
  let fn = Array.unsafe_get fns i in
  let arg : Obj.t = Obj.repr (Array.unsafe_get args i) in
  let cx = Array.unsafe_get cxs i in
  Array.unsafe_set fns i ignore_obj;
  Array.unsafe_set args i unit_payload;
  Array.unsafe_set cxs i no_cx;
  Array.unsafe_set (Array.unsafe_get t.links c) i t.free;
  t.free <- s;
  if Obj.is_int (Obj.repr cx) then
    (* Fire-and-forget: [cx] is the creation index and the event cannot
       have been cancelled. *)
    fire t key (Obj.magic cx : int) fn arg
  else if cx.hstate = 0 then begin
    cx.hstate <- 1;
    fire t key cx.hcidx fn arg
  end

(* The run loop pops while the minimum key is [<= lim]. It decides from
   [min_key] (memoized, non-mutating) before popping: peeking must not
   advance the wheel's cursor past [limit], or a later legal schedule
   below the cursor would be rejected. A time limit translates to the
   largest key at that µs — every rank at time [limit] is included,
   matching the old time-inclusive contract. *)
let limit_key (limit : Time.t) = ((limit + 1) lsl rank_bits) - 1

let rec run_through_key t lim =
  if t.size > 0 && min_key t <= lim then begin
    exec t (wheel_pop t);
    run_through_key t lim
  end

let run_until t limit =
  run_through_key t (limit_key limit);
  fast_forward t limit

(* One conservative window (DESIGN.md §18): execute every event with
   canonical key STRICTLY below [limit_key] — key-exclusive, unlike
   [run_until]'s inclusive time limit, because a window boundary can fall
   {e inside} an instant: the driver cuts a window at the control
   replica's next pending key, so shard events at the barrier µs whose
   rank sorts below the barrier event's still run first, exactly as the
   one-queue sequential order has it. The clock is left at the last
   executed event, not advanced to the limit: the driver [fast_forward]s
   explicitly when barrier-time code needs [now] at the barrier
   instant. *)
let run_window_key t ~limit_key = run_through_key t (limit_key - 1)

let run_until_idle ?limit t =
  let lim = match limit with Some l -> limit_key l | None -> max_int in
  run_through_key t lim;
  if next_pending_key t < 0 then `Idle
  else begin
    (match limit with Some l -> fast_forward t l | None -> ());
    `Limit
  end
