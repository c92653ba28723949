(* Tests for the engine's scheduler: the timing wheel over the slot store
   and the binary-heap reference implement one contract (nondecreasing
   canonical key order, FIFO among equal keys), so any program must fire
   identically under both. Everything goes through [Sim.Engine]'s public
   API: unit cases for the contract's corners, random differential
   programs on both backends (external schedules between partial runs,
   handlers that schedule more, batched fan-outs, rank changes), and the
   allocation gates of the steady state. *)

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
  List.iter
    (fun queue ->
      let e = Sim.Engine.create ~queue ~seed:1L () in
      check int_t "empty: no pending key" (-1) (Sim.Engine.next_pending_key e);
      check int_t "empty: no pending us" (-1) (Sim.Engine.next_pending_us e);
      check bool_t "empty: idle at once" true
        (Sim.Engine.run_until_idle e = `Idle);
      Sim.Engine.call_at e (us 4) ignore ();
      ignore (Sim.Engine.run_until_idle e);
      check int_t "drained: no pending key" (-1)
        (Sim.Engine.next_pending_key e))
    [ `Wheel; `Heap ]

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

(* ------------------------------------------------------- batch insertion *)

(* Staged slots are invisible to queries until the commit; a commit makes
   the queue identical to individual schedules, FIFO included. *)
let test_stage_commit_basics () =
  let program batched queue =
    let e = Sim.Engine.create ~queue ~seed:1L () in
    let log, note = fired_pairs () in
    let sched =
      if batched then Sim.Engine.batch_call_after e else Sim.Engine.call_after e
    in
    Sim.Engine.call_after e (us 5) note (5, 0);
    sched (us 3) note (3, 1);
    sched (us 5) note (5, 2);
    sched (us 3) note (3, 3);
    check int_t "staged events are live" 4 (Sim.Engine.pending e);
    if batched && queue = `Wheel then
      Alcotest.check_raises "peek with a staged batch raises"
        (Invalid_argument "Engine: staged batch pending commit") (fun () ->
          ignore (Sim.Engine.next_pending_key e));
    Sim.Engine.batch_commit e;
    check int_t "earliest after commit" 3 (Sim.Engine.next_pending_us e);
    ignore (Sim.Engine.run_until_idle e);
    (* An empty commit is a no-op. *)
    Sim.Engine.batch_commit e;
    check int_t "drained" 0 (Sim.Engine.pending e);
    List.rev !log
  in
  let expected = [ (3, 1); (3, 3); (5, 0); (5, 2) ] in
  List.iter
    (fun (label, batched, queue) ->
      check
        (Alcotest.list (Alcotest.pair int_t int_t))
        label expected (program batched queue))
    [
      ("wheel, staged", true, `Wheel);
      ("wheel, one by one", false, `Wheel);
      ("heap, staged", true, `Heap);
    ]

let test_stage_below_cursor_raises () =
  let e = Sim.Engine.create ~seed:1L () in
  Sim.Engine.call_at e (us 10) ignore ();
  ignore (Sim.Engine.run_until_idle e);
  Alcotest.check_raises "stage before now"
    (Invalid_argument "Engine.schedule: 3us is before now (10us)") (fun () ->
      Sim.Engine.batch_call_after e (us (-7)) ignore ());
  Sim.Engine.batch_commit e;
  check int_t "refusal stages nothing" 0 (Sim.Engine.pending e)

(* -------------------------------------------- differential vs binary heap *)

(* One random program, run on the wheel (optionally with every schedule
   staged and committed in batches) and on the heap; the fire logs and
   the [pending] trace must be equal. The outer loop alternates external
   schedules at random offsets above the clock with partial runs to a
   random limit (so pops are interleaved with pushes that land near a
   moved cursor); handlers raise the creator rank and schedule children,
   so same-µs events of different ranks exercise the low key digits. With
   [burst], half the delays are 0 — the key of the running event's
   instant — so the FIFO tie-break is hit hard. Ranks only rise inside a
   handler: a zero-delay schedule under a lower rank takes the [exec_key]
   clamp, whose key carries another rank's creation counter, and there
   the heap's (key, cidx) order and the wheel's FIFO are not specified to
   agree. Both runs draw from one RNG stream in fire order: a divergence
   shows up as differing logs. *)
let run_differential ~seed ~ops ~spread ~burst ?(batched = false) () =
  let run queue ~batched =
    let rng = Dstruct.Rng.create seed in
    let e = Sim.Engine.create ~queue ~seed:1L () in
    let log = ref [] and pendings = ref [] in
    let uid = ref 0 in
    let rec fire id =
      log := id :: !log;
      let pid = (Sim.Engine.executing_key e land rank_mask) - 1 in
      Sim.Engine.set_rank e (max pid (id mod 7));
      if !uid < ops && Dstruct.Rng.chance rng 0.45 then begin
        for _ = 1 to 1 + Dstruct.Rng.int rng 3 do
          schedule ()
        done;
        Sim.Engine.batch_commit e
      end
    and schedule () =
      let delay =
        if burst && Dstruct.Rng.chance rng 0.5 then 0
        else Dstruct.Rng.int rng spread
      in
      let id = !uid in
      incr uid;
      if batched then Sim.Engine.batch_call_after e (us delay) fire id
      else Sim.Engine.call_after e (us delay) fire id
    in
    while !uid < ops do
      for _ = 1 to 1 + Dstruct.Rng.int rng 8 do
        schedule ()
      done;
      Sim.Engine.batch_commit e;
      let now = Sim.Time.to_us (Sim.Engine.now e) in
      Sim.Engine.run_until e (us (now + Dstruct.Rng.int rng spread));
      pendings := Sim.Engine.pending e :: !pendings
    done;
    ignore (Sim.Engine.run_until_idle e);
    check int_t "every scheduled event fired" !uid (Sim.Engine.executed e);
    (List.rev !log, List.rev !pendings, Sim.Engine.executed e)
  in
  let heap_log, heap_pend, heap_x = run `Heap ~batched:false in
  let wheel_log, wheel_pend, wheel_x = run `Wheel ~batched in
  check (Alcotest.list int_t) "fire order agrees" heap_log wheel_log;
  check (Alcotest.list int_t) "pending agrees after every run" heap_pend
    wheel_pend;
  check int_t "executed agrees" heap_x wheel_x

let test_batch_differential () =
  List.iter
    (fun (seed, spread) ->
      run_differential ~seed ~ops:20_000 ~spread ~burst:true ~batched:true ())
    [ (31L, 64); (32L, 5_000); (33L, 10_000_000) ]

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

(* Drive two engines — one per backend — through one pre-generated random
   program of schedules and cancels, and require identical fire order and
   identical [pending]/[executed] counters at every phase. Cancels cover
   both the pre-run and the mid-run (an event cancelling a later event)
   paths. *)
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
  let run queue =
    let engine = Sim.Engine.create ~queue ~seed:11L () in
    let log = ref [] in
    let handles = Array.make n_events None in
    List.iter
      (fun (i, delay, cancels) ->
        let h =
          Sim.Engine.schedule_after engine (Sim.Time.of_us delay) (fun () ->
              log := i :: !log;
              match cancels with
              | Some j -> (
                  match handles.(j) with
                  | Some hj -> Sim.Engine.cancel engine hj
                  | None -> ())
              | None -> ())
        in
        handles.(i) <- Some h)
      program;
    (* Pre-run cancels: every 17th event dies before the clock moves. *)
    List.iter
      (fun (i, _, _) ->
        if i mod 17 = 0 then
          match handles.(i) with
          | Some h -> Sim.Engine.cancel engine h
          | None -> ())
      program;
    let pending_before = Sim.Engine.pending engine in
    Sim.Engine.run_until engine (Sim.Time.of_us 25_000);
    let mid = (List.rev !log, Sim.Engine.pending engine) in
    Sim.Engine.run_until engine (Sim.Time.of_us 60_000);
    ( pending_before,
      mid,
      List.rev !log,
      Sim.Engine.pending engine,
      Sim.Engine.executed engine )
  in
  let bh, (mid_h, midp_h), fh, ph, xh = run `Heap in
  let bw, (mid_w, midp_w), fw, pw, xw = run `Wheel in
  check int_t "pending before run agrees" bh bw;
  check (Alcotest.list int_t) "fire order agrees at mid-run" mid_h mid_w;
  check int_t "pending agrees at mid-run" midp_h midp_w;
  check (Alcotest.list int_t) "final fire order agrees" fh fw;
  check int_t "final pending agrees" ph pw;
  check int_t "executed agrees" xh xw

let test_engine_differential () =
  List.iter (fun seed -> run_engine_differential ~seed ()) [ 21L; 22L; 23L ]

(* ------------------------------------------------------ allocation gates *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* Steady-state scheduling must reuse freed slots: after a warm-up that
   sizes the store, 100k schedule/fire cycles allocate nothing — on both
   backends (the heap's slot-id array only grows while the peak rises).
   64 self-rescheduling chains with a static [fn] keep the queue at a
   constant depth. *)
type ticker = { engine : Sim.Engine.t; mutable left : int }

let rec tick st =
  st.left <- st.left - 1;
  if st.left > 0 then
    Sim.Engine.call_after st.engine
      (us (1 + (st.left * 7919 mod 1_000)))
      tick st

let test_steady_state_alloc_free () =
  List.iter
    (fun queue ->
      let e = Sim.Engine.create ~queue ~seed:1L () in
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
      let words =
        minor_words_of (fun () -> ignore (Sim.Engine.run_until_idle e))
      in
      check bool_t
        (Printf.sprintf
           "%s: 100k schedule/fire cycles allocated %d minor words"
           (match queue with `Wheel -> "wheel" | `Heap -> "heap")
           words)
        true (words < 1_000))
    [ `Wheel; `Heap ]

(* The large-cluster differential (DESIGN.md §14): the same n=256 slice of
   simulation, digested event by event, under the timing wheel and the
   binary-heap reference — the batched broadcast fan-out (staged wheel
   splices) must leave the event stream bit-identical to the heap's
   push-per-destination. The horizon is short: at n=256 even 100 simulated
   milliseconds is ~1M messages through both backends. *)
let test_n256_backend_digest_differential () =
  let n = 256 in
  let config = Omega.Config.default ~n ~t:((n - 1) / 2) Omega.Config.Fig1 in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Rotating_star { center = n - 2 })
  in
  let digest_of sched =
    let spec =
      Harness.Run.Spec.(
        default |> with_check false |> with_digest true |> with_sched sched
        |> with_horizon (Sim.Time.of_ms 100))
    in
    let result = Harness.Run.run ~spec ~env ~seed:7L () in
    Option.get result.Harness.Run.digest
  in
  check (Alcotest.of_pp (fun fmt d -> Format.fprintf fmt "%Lx" d))
    "wheel and heap digests agree at n=256"
    (digest_of `Heap) (digest_of `Wheel)

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
          Alcotest.test_case "stage/commit equals pushes" `Quick
            test_stage_commit_basics;
          Alcotest.test_case "stage below cursor raises" `Quick
            test_stage_below_cursor_raises;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random schedules match heap" `Quick
            test_differential_spread;
          Alcotest.test_case "wide keys cross levels" `Quick
            test_differential_wide;
          Alcotest.test_case "same-time bursts keep FIFO" `Quick
            test_differential_bursts;
          Alcotest.test_case "batched inserts match heap" `Quick
            test_batch_differential;
          Alcotest.test_case "engine backends agree" `Quick
            test_engine_differential;
          Alcotest.test_case "n=256 backend digests agree" `Slow
            test_n256_backend_digest_differential;
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
