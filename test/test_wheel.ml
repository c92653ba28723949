(* Tests for the engine's scheduler: the timing wheel over the slot store
   pops in the canonical order — nondecreasing key, FIFO among equal keys,
   which is ascending creation index — and the engine checks that order
   on every event it fires. Everything goes through [Sim.Engine]'s public
   API: unit cases for the contract's corners (the [exec_key] clamp and
   the order check among them), random differential programs against a
   sorted-list reference that computes every event's (key, cidx) itself
   (external schedules between partial runs, handlers that schedule more,
   rank changes in both directions, cancels), and the allocation gates of
   the steady state. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let us = Sim.Time.of_us
let rank_mask = (1 lsl Sim.Engine.rank_bits) - 1

(* ------------------------------------------------------------ unit tests *)

let fired_pairs () =
  let log = ref [] in
  let note (k, id) = log := (k, id) :: !log in
  (log, note)

let test_basics () =
  let e = Sim.Engine.create ~seed:1L () in
  let log, note = fired_pairs () in
  List.iter
    (fun (k, id) -> Sim.Engine.call_at e (us k) note (k, id))
    [ (5, 0); (1, 1); (70_000, 2); (1, 3); (300, 4) ];
  check int_t "pending" 5 (Sim.Engine.pending e);
  check int_t "earliest pending us" 1 (Sim.Engine.next_pending_us e);
  check bool_t "drains to idle" true (Sim.Engine.run_until_idle e = `Idle);
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "sorted drain, FIFO ties"
    [ (1, 1); (1, 3); (5, 0); (300, 4); (70_000, 2) ]
    (List.rev !log);
  check int_t "nothing pending" 0 (Sim.Engine.pending e);
  check int_t "clock at the last event" 70_000
    (Sim.Time.to_us (Sim.Engine.now e))

let test_push_below_cursor_raises () =
  let e = Sim.Engine.create ~seed:1L () in
  Sim.Engine.call_at e (us 10) ignore ();
  ignore (Sim.Engine.run_until_idle e);
  Alcotest.check_raises "schedule before now"
    (Invalid_argument "Engine.schedule: 3us is before now (10us)") (fun () ->
      Sim.Engine.call_at e (us 3) ignore ());
  check int_t "refusal leaves nothing pending" 0 (Sim.Engine.pending e)

let test_empty_idle () =
  let e = Sim.Engine.create ~seed:1L () in
  check int_t "empty: no pending key" (-1) (Sim.Engine.next_pending_key e);
  check int_t "empty: no pending us" (-1) (Sim.Engine.next_pending_us e);
  check bool_t "empty: idle at once" true (Sim.Engine.run_until_idle e = `Idle);
  Sim.Engine.call_at e (us 4) ignore ();
  ignore (Sim.Engine.run_until_idle e);
  check int_t "drained: no pending key" (-1) (Sim.Engine.next_pending_key e)

(* The [exec_key] clamp: A and B run at 5 µs under rank 5 (pid 4); A drops
   to rank 1 and schedules C at zero delay. C's own key would sort below
   A's, so it takes A's key — and the next creation index of that key's
   rank, so it runs after B, which was already queued there, and every
   fire sorts strictly after the one before it. *)
let test_clamp_sorts_after_queued () =
  let e = Sim.Engine.create ~seed:1L () in
  let log = ref [] in
  let note name =
    log :=
      (name, Sim.Engine.executing_key e, Sim.Engine.executing_cidx e) :: !log
  in
  let a () =
    note "A";
    Sim.Engine.set_rank e 0;
    Sim.Engine.call_after e (us 0) note "C"
  in
  Sim.Engine.set_rank e 4;
  Sim.Engine.call_at e (us 5) a ();
  Sim.Engine.call_at e (us 5) note "B";
  ignore (Sim.Engine.run_until_idle e);
  let key = (5 lsl Sim.Engine.rank_bits) lor 5 in
  check
    (Alcotest.list (Alcotest.triple Alcotest.string int_t int_t))
    "A, B, then the clamped C, at strictly increasing (key, cidx)"
    [ ("A", key, 0); ("B", key, 1); ("C", key, 2) ]
    (List.rev !log)

(* The order check, reached through the public API: two committed events
   at one key, enqueued before anything runs with descending creation
   indices. The wheel pops them FIFO, so the second sorts below the first
   when it fires — and the engine must refuse to run it. *)
let test_order_check_raises () =
  let e = Sim.Engine.create ~seed:1L () in
  let key = (7 lsl Sim.Engine.rank_bits) lor 3 in
  let ran = ref [] in
  let note i = ran := i :: !ran in
  Sim.Engine.enqueue_committed e ~key ~cidx:5 note 5;
  Sim.Engine.enqueue_committed e ~key ~cidx:3 note 3;
  Alcotest.check_raises "the descending fire is refused"
    (Invalid_argument
       (Printf.sprintf
          "Engine.fire: event (key %d, cidx 3) sorts at or below the last \
           executed event (key %d, cidx 5); the queue broke canonical order"
          key key))
    (fun () -> ignore (Sim.Engine.run_until_idle e));
  check (Alcotest.list int_t) "only the first event ran" [ 5 ] !ran

(* The engine peeks an event beyond its run limit and leaves it queued; a
   later schedule below that peeked key (but at/above the clock) must
   still be accepted and fire first. This pins that peeking — the run
   loops' and [next_pending_key]'s — never cascades or advances the
   wheel's cursor. *)
let test_peek_does_not_advance () =
  let e = Sim.Engine.create ~seed:1L () in
  let log, note = fired_pairs () in
  Sim.Engine.call_at e (us 1_000_000) note (1_000_000, 0);
  check int_t "peek far key" 1_000_000 (Sim.Engine.next_pending_us e);
  check int_t "peek again" 1_000_000 (Sim.Engine.next_pending_us e);
  Sim.Engine.run_until e (us 100);
  check int_t "far event still pending" 1 (Sim.Engine.pending e);
  Sim.Engine.call_at e (us 200) note (200, 1);
  Sim.Engine.call_at e (us 100) note (100, 2);
  ignore (Sim.Engine.run_until_idle e);
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "near keys fire first" [ (100, 2); (200, 1); (1_000_000, 0) ]
    (List.rev !log)

(* ------------------------------------------- differential vs reference *)

(* The reference: the canonical order, computed by the test with no wheel.
   A schedule at µs [time] under creator rank [rank] gets the key
   [(time lsl rank_bits) lor rank] — raised to the executing event's key
   when it would sort below it — and the next creation index of the rank
   that key carries. Pending events sit in a list sorted by [(key, cidx)];
   running pops the head, takes its time, key and rank, and calls the
   program's handler. Cancelling removes the event from the list. *)
type reference = {
  mutable r_now : int;
  mutable r_rank : int;
  mutable r_exec_key : int;
  mutable r_pending : (int * int * int) list;  (* (key, cidx, id) *)
  r_counters : int array;
  mutable r_executed : int;
}

(* The scheduler surface a random program drives, implemented by the
   engine and by the reference. Times are µs; [on_fire id key cidx] is
   called with each fired event's canonical identity. *)
type sched = {
  schedule : delay:int -> int -> unit;
  cancel : int -> unit;
  set_rank : int -> unit;
  run_until : int -> unit;
  run_until_idle : unit -> unit;
  now : unit -> int;
  pending : unit -> int;
  executed : unit -> int;
}

let rec insert_sorted ((key, cidx, _) as ev) = function
  | ((k, c, _) as hd) :: tl when k < key || (k = key && c < cidx) ->
      hd :: insert_sorted ev tl
  | l -> ev :: l

let reference_sched ~on_fire =
  let r =
    {
      r_now = 0;
      r_rank = 0;
      r_exec_key = 0;
      r_pending = [];
      r_counters = Array.make (rank_mask + 1) 0;
      r_executed = 0;
    }
  in
  let rec run ~through_us =
    match r.r_pending with
    | (key, cidx, id) :: rest when key asr Sim.Engine.rank_bits <= through_us
      ->
        r.r_pending <- rest;
        r.r_now <- key asr Sim.Engine.rank_bits;
        r.r_rank <- key land rank_mask;
        r.r_exec_key <- key;
        r.r_executed <- r.r_executed + 1;
        on_fire id key cidx;
        run ~through_us
    | _ -> ()
  in
  {
    schedule =
      (fun ~delay id ->
        let key = ((r.r_now + delay) lsl Sim.Engine.rank_bits) lor r.r_rank in
        let key = max key r.r_exec_key in
        let rank = key land rank_mask in
        let cidx = r.r_counters.(rank) in
        r.r_counters.(rank) <- cidx + 1;
        r.r_pending <- insert_sorted (key, cidx, id) r.r_pending);
    cancel =
      (fun id ->
        r.r_pending <- List.filter (fun (_, _, i) -> i <> id) r.r_pending);
    set_rank = (fun pid -> r.r_rank <- pid + 1);
    run_until =
      (fun limit ->
        run ~through_us:limit;
        r.r_now <- max r.r_now limit);
    run_until_idle = (fun () -> run ~through_us:max_int);
    now = (fun () -> r.r_now);
    pending = (fun () -> List.length r.r_pending);
    executed = (fun () -> r.r_executed);
  }

(* [api]: [`Packed] schedules fire-and-forget with [call_after],
   [`Handles] schedules closures with handles, so [cancel] works. *)
let engine_sched ~api ~on_fire =
  let e = Sim.Engine.create ~seed:1L () in
  let handles = Hashtbl.create 64 in
  let fire id =
    on_fire id (Sim.Engine.executing_key e) (Sim.Engine.executing_cidx e)
  in
  {
    schedule =
      (fun ~delay id ->
        match api with
        | `Packed -> Sim.Engine.call_after e (us delay) fire id
        | `Handles ->
            Hashtbl.replace handles id
              (Sim.Engine.schedule_after e (us delay) (fun () -> fire id)));
    cancel = (fun id -> Sim.Engine.cancel e (Hashtbl.find handles id));
    set_rank = Sim.Engine.set_rank e;
    run_until = (fun limit -> Sim.Engine.run_until e (us limit));
    run_until_idle = (fun () -> ignore (Sim.Engine.run_until_idle e));
    now = (fun () -> Sim.Time.to_us (Sim.Engine.now e));
    pending = (fun () -> Sim.Engine.pending e);
    executed = (fun () -> Sim.Engine.executed e);
  }

let fired_t = Alcotest.(list (triple int_t int_t int_t))

(* One random program, run on the engine and on the reference; the fire logs —
   ids with their (key, cidx) — and the [pending] trace must be equal. The
   outer loop alternates external schedules at random offsets above the
   clock with partial runs to a random limit (so pops are interleaved with
   pushes that land near a moved cursor); handlers switch to a rank that
   may lie above or below their own and schedule children, so same-µs
   events of different ranks exercise the low key digits. With [burst],
   half the delays are 0 — the key of the running event's instant — so
   the FIFO tie-break is hit hard, and a zero-delay child under a lower
   rank takes the [exec_key] clamp. Both runs draw from one RNG stream in
   fire order: a divergence shows up as differing logs. *)
let run_differential ~seed ~ops ~spread ~burst () =
  let run make =
    let rng = Dstruct.Rng.create seed in
    let log = ref [] and pendings = ref [] and uid = ref 0 in
    let self = ref None in
    let schedule () =
      let delay =
        if burst && Dstruct.Rng.chance rng 0.5 then 0
        else Dstruct.Rng.int rng spread
      in
      let id = !uid in
      incr uid;
      (Option.get !self).schedule ~delay id
    in
    let on_fire id key cidx =
      log := (id, key, cidx) :: !log;
      let s = Option.get !self in
      s.set_rank (id mod 7);
      if !uid < ops && Dstruct.Rng.chance rng 0.45 then
        for _ = 1 to 1 + Dstruct.Rng.int rng 3 do
          schedule ()
        done
    in
    let s = make ~on_fire in
    self := Some s;
    while !uid < ops do
      for _ = 1 to 1 + Dstruct.Rng.int rng 8 do
        schedule ()
      done;
      s.run_until (s.now () + Dstruct.Rng.int rng spread);
      pendings := s.pending () :: !pendings
    done;
    s.run_until_idle ();
    check int_t "every scheduled event fired" !uid (s.executed ());
    (List.rev !log, List.rev !pendings, s.executed ())
  in
  let ref_log, ref_pend, ref_x = run reference_sched in
  let log, pend, x = run (engine_sched ~api:`Packed) in
  check fired_t "fire order and (key, cidx) agree" ref_log log;
  check (Alcotest.list int_t) "pending agrees after every run" ref_pend pend;
  check int_t "executed agrees" ref_x x

let test_differential_spread () =
  List.iter
    (fun seed ->
      run_differential ~seed ~ops:20_000 ~spread:5_000 ~burst:false ())
    [ 1L; 2L; 3L; 1234L ]

(* Wide spread crosses wheel levels (keys land several radix-256 digits
   apart), exercising cascades. *)
let test_differential_wide () =
  List.iter
    (fun seed ->
      run_differential ~seed ~ops:10_000 ~spread:10_000_000 ~burst:false ())
    [ 7L; 99L; 4242L ]

let test_differential_bursts () =
  List.iter
    (fun seed -> run_differential ~seed ~ops:20_000 ~spread:64 ~burst:true ())
    [ 5L; 6L; 777L ]

(* --------------------------------------------- engine-level differential *)

(* Drive the engine and the reference through one pre-generated random
   program of closure schedules and cancels, and require identical fire
   order and identical [pending]/[executed] counters at every phase.
   Cancels cover both the pre-run and the mid-run (an event cancelling a
   later event) paths. *)
let run_engine_differential ~seed () =
  let rng = Dstruct.Rng.create seed in
  let n_events = 400 in
  let program =
    List.init n_events (fun i ->
        let delay = Dstruct.Rng.int rng 50_000 (* us *) in
        let cancels =
          if i >= 10 && Dstruct.Rng.chance rng 0.15 then
            Some (Dstruct.Rng.int rng i)
          else None
        in
        (i, delay, cancels))
  in
  let cancels = Array.of_list (List.map (fun (_, _, c) -> c) program) in
  let run make =
    let log = ref [] and self = ref None in
    let on_fire id key cidx =
      log := (id, key, cidx) :: !log;
      Option.iter (Option.get !self).cancel cancels.(id)
    in
    let s = make ~on_fire in
    self := Some s;
    List.iter (fun (i, delay, _) -> s.schedule ~delay i) program;
    (* Pre-run cancels: every 17th event dies before the clock moves. *)
    List.iter (fun (i, _, _) -> if i mod 17 = 0 then s.cancel i) program;
    let pending_before = s.pending () in
    s.run_until 25_000;
    let mid = (List.rev !log, s.pending ()) in
    s.run_until 60_000;
    (pending_before, mid, List.rev !log, s.pending (), s.executed ())
  in
  let br, (mid_r, midp_r), fr, pr, xr = run reference_sched in
  let bw, (mid_w, midp_w), fw, pw, xw = run (engine_sched ~api:`Handles) in
  check int_t "pending before run agrees" br bw;
  check fired_t "fire order agrees at mid-run" mid_r mid_w;
  check int_t "pending agrees at mid-run" midp_r midp_w;
  check fired_t "final fire order agrees" fr fw;
  check int_t "final pending agrees" pr pw;
  check int_t "executed agrees" xr xw

let test_engine_differential () =
  List.iter (fun seed -> run_engine_differential ~seed ()) [ 21L; 22L; 23L ]

(* ------------------------------------------------------ allocation gates *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* Steady-state scheduling must reuse freed slots: after a warm-up that
   sizes the store, 100k schedule/fire cycles allocate nothing. 64
   self-rescheduling chains with a static [fn] keep the queue at a
   constant depth. *)
type ticker = { engine : Sim.Engine.t; mutable left : int }

let rec tick st =
  st.left <- st.left - 1;
  if st.left > 0 then
    Sim.Engine.call_after st.engine
      (us (1 + (st.left * 7919 mod 1_000)))
      tick st

let test_steady_state_alloc_free () =
  let e = Sim.Engine.create ~seed:1L () in
  let chains = Array.init 64 (fun _ -> { engine = e; left = 0 }) in
  let start left =
    Array.iteri
      (fun i st ->
        st.left <- left;
        Sim.Engine.call_after e (us i) tick st)
      chains
  in
  start 100;
  ignore (Sim.Engine.run_until_idle e);
  start (100_000 / 64);
  let words = minor_words_of (fun () -> ignore (Sim.Engine.run_until_idle e)) in
  check bool_t
    (Printf.sprintf "100k schedule/fire cycles allocated %d minor words" words)
    true (words < 1_000)

(* The large-cluster stream (DESIGN.md §14): an n=256 slice of simulation,
   digested event by event, pinned at the value on which the timing wheel
   and the binary-heap reference it replaced agreed. The horizon is
   short: at n=256 even 100 simulated milliseconds is ~1M messages. *)
let test_n256_digest_pinned () =
  let n = 256 in
  let config = Omega.Config.default ~n ~t:((n - 1) / 2) Omega.Config.Fig1 in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Rotating_star { center = n - 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_digest true
      |> with_horizon (Sim.Time.of_ms 100))
  in
  let result = Harness.Run.run ~spec ~env ~seed:7L () in
  check Alcotest.string "n=256 digest pinned" "b554724e8007fd83"
    (Obs.Digest.to_hex (Option.get result.Harness.Run.digest))

(* The n-scaling budget: one simulated second at n=32 under the default
   wheel and recycled stores. Like test_rng's n=4 budget, the bound is
   ~1.4x the measured value at its introduction — a breach means
   per-message allocation crept back into the scaled path (event slots,
   flights, or round cells). *)
let test_n32_run_budget () =
  let config = Omega.Config.default ~n:32 ~t:8 Omega.Config.Fig1 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_horizon (Sim.Time.of_sec 1))
  in
  let run () = ignore (Harness.Run.run ~spec ~env ~seed:7L ()) in
  run () (* warm-up: first run pays one-time lazy setup *);
  let words = minor_words_of run in
  check bool_t
    (Printf.sprintf
       "null-sink 1s n=32 run allocated %d minor words (budget 2600000)" words)
    true
    (words < 2_600_000)

(* Same gate at the large-cluster tier: 300 simulated milliseconds at
   n=256 (~2.9M messages). The per-message budget is tighter than n=32's —
   per-round costs (payload copies, round cells, suspicion lists) amortize
   over more messages at large n, so regressions of the per-message path
   stand out more sharply here. *)
let test_n256_run_budget () =
  let n = 256 in
  let config = Omega.Config.default ~n ~t:((n - 1) / 2) Omega.Config.Fig1 in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Rotating_star { center = n - 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_horizon (Sim.Time.of_ms 300))
  in
  let run () = ignore (Harness.Run.run ~spec ~env ~seed:7L ()) in
  run ();
  let words = minor_words_of run in
  check bool_t
    (Printf.sprintf
       "null-sink 300ms n=256 run allocated %d minor words (budget 12000000)"
       words)
    true
    (words < 12_000_000)

(* ALIVE-payload interning (DESIGN.md §14): under a full-timely regime no
   suspicion level ever rises past the anarchy prefix, so every sender's
   payload stays clean and is re-broadcast as the same array object round
   after round — no per-round [Array.copy], and receivers skip the merge by
   physical equality. Steady-state per-round allocation for the whole
   64-process cluster must then be O(n) words (timer handles, round-table
   cells), nowhere near the ~n*(n+2) words per round that per-broadcast
   payload copies would cost (~4200 at n=64). The anarchy prefix *does*
   copy (levels rise every round there), so the steady state is isolated
   by differencing a 2 s run against a 1 s run — both pay the identical
   prefix, and the difference is 100 stabilized rounds. Measured ~58
   words/node/round; budget 90*n per round. *)
let test_payload_interning_budget () =
  let n = 64 in
  let config = Omega.Config.default ~n ~t:((n - 1) / 2) Omega.Config.Fig1 in
  let env = Scenarios.Env.make config Scenarios.Scenario.Full_timely in
  let run horizon_ms () =
    let spec =
      Harness.Run.Spec.(
        default |> with_check false
        |> with_horizon (Sim.Time.of_ms horizon_ms))
    in
    ignore (Harness.Run.run ~spec ~env ~seed:7L ())
  in
  run 1_000 ();
  let words_1s = minor_words_of (run 1_000) in
  let words_2s = minor_words_of (run 2_000) in
  (* 100 rounds of 10ms in the second simulated second. *)
  let words_per_round = (words_2s - words_1s) / 100 in
  check bool_t
    (Printf.sprintf
       "full-timely steady-state n=64 allocated %d minor words/round \
        (budget 90*n)"
       words_per_round)
    true
    (words_per_round < 90 * n)

let () =
  Alcotest.run "wheel"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "push below cursor raises" `Quick
            test_push_below_cursor_raises;
          Alcotest.test_case "empty queue peeks -1 and runs idle" `Quick
            test_empty_idle;
          Alcotest.test_case "peek does not advance cursor" `Quick
            test_peek_does_not_advance;
          Alcotest.test_case "clamped schedule sorts after its key's queue"
            `Quick test_clamp_sorts_after_queued;
          Alcotest.test_case "order check raises on a descending commit"
            `Quick test_order_check_raises;
        ] );
      ( "differential",
        [
          (* The "heap" and "backend" case names predate the sorted-list
             reference and the pinned digest that replaced the binary heap
             as the scheduler's reference. *)
          Alcotest.test_case "random schedules match heap" `Quick
            test_differential_spread;
          Alcotest.test_case "wide keys cross levels" `Quick
            test_differential_wide;
          Alcotest.test_case "same-time bursts keep FIFO" `Quick
            test_differential_bursts;
          Alcotest.test_case "engine backends agree" `Quick
            test_engine_differential;
          Alcotest.test_case "n=256 backend digests agree" `Slow
            test_n256_digest_pinned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "steady state is allocation-free" `Quick
            test_steady_state_alloc_free;
          Alcotest.test_case "n=32 run budget" `Slow test_n32_run_budget;
          Alcotest.test_case "n=256 run budget" `Slow test_n256_run_budget;
          Alcotest.test_case "payload interning budget" `Slow
            test_payload_interning_budget;
        ] );
    ]
