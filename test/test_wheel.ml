(* Differential tests for the timing-wheel scheduler: the wheel and the
   binary heap implement one contract (nondecreasing key order, FIFO among
   equal keys), so any workload must drain identically from both. The
   random workloads respect the wheel's monotonicity precondition (pushed
   keys >= last popped key) because that is the regime the engine
   guarantees; the engine-level tests then check the two backends through
   [Sim.Engine] itself, cancels and all. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let new_wheel () = Dstruct.Wheel.create ~dummy:(-1, -1) ()

let new_heap () =
  Dstruct.Pqueue.create ~compare:(fun (a, _) (b, _) -> Int.compare a b)

(* ------------------------------------------------------------ unit tests *)

let test_basics () =
  let w = new_wheel () in
  check bool_t "fresh is empty" true (Dstruct.Wheel.is_empty w);
  check int_t "fresh cursor" 0 (Dstruct.Wheel.cursor w);
  List.iter
    (fun (k, id) -> Dstruct.Wheel.push w ~key:k (k, id))
    [ (5, 0); (1, 1); (70_000, 2); (1, 3); (300, 4) ];
  check int_t "length" 5 (Dstruct.Wheel.length w);
  check int_t "min key" 1 (Dstruct.Wheel.min_key_exn w);
  let drained = List.init 5 (fun _ -> Dstruct.Wheel.pop_exn w) in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "sorted drain, FIFO ties"
    [ (1, 1); (1, 3); (5, 0); (300, 4); (70_000, 2) ]
    drained;
  check bool_t "empty again" true (Dstruct.Wheel.is_empty w);
  check int_t "cursor at last pop" 70_000 (Dstruct.Wheel.cursor w)

let test_push_below_cursor_raises () =
  let w = new_wheel () in
  Dstruct.Wheel.push w ~key:10 (10, 0);
  ignore (Dstruct.Wheel.pop_exn w);
  Alcotest.check_raises "push below cursor"
    (Invalid_argument "Wheel.push: key 3 below cursor 10") (fun () ->
      Dstruct.Wheel.push w ~key:3 (3, 0))

let test_empty_raises () =
  let w = new_wheel () in
  Alcotest.check_raises "pop on empty" (Invalid_argument "Wheel: empty wheel")
    (fun () -> ignore (Dstruct.Wheel.pop_exn w))

(* The engine peeks an event beyond its run limit and leaves it queued; a
   later push below that peeked key (but at/above the cursor) must still be
   accepted and pop first. This pins that [peek]/[min_key] never cascade or
   advance the cursor. *)
let test_peek_does_not_advance () =
  let w = new_wheel () in
  Dstruct.Wheel.push w ~key:1_000_000 (1_000_000, 0);
  check int_t "peek far key" 1_000_000 (Dstruct.Wheel.min_key_exn w);
  check int_t "cursor still 0" 0 (Dstruct.Wheel.cursor w);
  Dstruct.Wheel.push w ~key:3 (3, 1);
  check
    (Alcotest.pair int_t int_t)
    "near key pops first" (3, 1) (Dstruct.Wheel.pop_exn w);
  check
    (Alcotest.pair int_t int_t)
    "far key follows" (1_000_000, 0) (Dstruct.Wheel.pop_exn w)

(* ------------------------------------------------------- batch insertion *)

(* Staged cells are invisible until commit; a commit makes the wheel
   identical to individual pushes, FIFO included. *)
let test_stage_commit_basics () =
  let w = new_wheel () in
  Dstruct.Wheel.push w ~key:5 (5, 0);
  Dstruct.Wheel.stage w ~key:3 (3, 1);
  Dstruct.Wheel.stage w ~key:5 (5, 2);
  Dstruct.Wheel.stage w ~key:3 (3, 3);
  check int_t "staged cells not counted" 1 (Dstruct.Wheel.length w);
  Alcotest.check_raises "pop with staged cells raises"
    (Invalid_argument "Wheel: staged cells pending commit") (fun () ->
      ignore (Dstruct.Wheel.pop_exn w));
  Dstruct.Wheel.commit w;
  check int_t "committed length" 4 (Dstruct.Wheel.length w);
  let drained = List.init 4 (fun _ -> Dstruct.Wheel.pop_exn w) in
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "stage order = push order, FIFO ties with earlier push"
    [ (3, 1); (3, 3); (5, 0); (5, 2) ]
    drained;
  (* Empty commit is a no-op. *)
  Dstruct.Wheel.commit w;
  check bool_t "empty after drain" true (Dstruct.Wheel.is_empty w)

let test_stage_below_cursor_raises () =
  let w = new_wheel () in
  Dstruct.Wheel.push w ~key:10 (10, 0);
  ignore (Dstruct.Wheel.pop_exn w);
  Alcotest.check_raises "stage below cursor"
    (Invalid_argument "Wheel.stage: key 3 below cursor 10") (fun () ->
      Dstruct.Wheel.stage w ~key:3 (3, 0))

(* Differential with batched inserts: the wheel receives its pushes in
   stage/commit batches (like a broadcast fan-out), the heap one by one;
   the drains must still agree element for element. Batch sizes and key
   spreads vary so batches cross buckets and levels, and repeat keys so
   same-bucket runs of length > 1 take the spliced path. *)
let run_batch_differential ~seed ~rounds ~spread () =
  let rng = Dstruct.Rng.create seed in
  let w = new_wheel () and q = new_heap () in
  let uid = ref 0 in
  for _ = 1 to rounds do
    let batch = 1 + Dstruct.Rng.int rng 24 in
    let base = Dstruct.Wheel.cursor w in
    let last = ref base in
    for _ = 1 to batch do
      let key =
        if Dstruct.Rng.chance rng 0.4 then !last
        else base + Dstruct.Rng.int rng spread
      in
      last := key;
      let v = (key, !uid) in
      incr uid;
      Dstruct.Wheel.stage w ~key v;
      Dstruct.Pqueue.push q v
    done;
    Dstruct.Wheel.commit w;
    (* Drain about half, so later batches land on a moved cursor. *)
    let pops = Dstruct.Wheel.length w / 2 in
    for _ = 1 to pops do
      let vw = Dstruct.Wheel.pop_exn w in
      let vq = Dstruct.Pqueue.pop_exn q in
      if vw <> vq then
        Alcotest.failf "batch divergence: wheel (%d,%d) heap (%d,%d)"
          (fst vw) (snd vw) (fst vq) (snd vq)
    done
  done;
  while not (Dstruct.Wheel.is_empty w) do
    check
      (Alcotest.pair int_t int_t)
      "batch drain order" (Dstruct.Pqueue.pop_exn q) (Dstruct.Wheel.pop_exn w)
  done;
  check bool_t "heap drained too" true (Dstruct.Pqueue.is_empty q)

let test_batch_differential () =
  List.iter
    (fun (seed, spread) -> run_batch_differential ~seed ~rounds:800 ~spread ())
    [ (31L, 64); (32L, 5_000); (33L, 10_000_000) ]

(* -------------------------------------------- differential vs binary heap *)

(* One random workload: interleaved pushes and pops, keys issued at a
   random offset above the wheel cursor so both structures see a legal
   monotone schedule. [burst] biases offsets toward 0 and repeats keys, so
   same-key FIFO ordering is exercised hard. Every pop is compared. *)
let run_differential ~seed ~ops ~spread ~burst () =
  let rng = Dstruct.Rng.create seed in
  let w = new_wheel () and q = new_heap () in
  let uid = ref 0 in
  let last_key = ref 0 in
  for _ = 1 to ops do
    let do_push =
      Dstruct.Wheel.is_empty w || Dstruct.Rng.chance rng 0.55
    in
    if do_push then begin
      let key =
        if burst && Dstruct.Rng.chance rng 0.5 then !last_key
        else Dstruct.Wheel.cursor w + Dstruct.Rng.int rng spread
      in
      let key = max key (Dstruct.Wheel.cursor w) in
      last_key := key;
      let v = (key, !uid) in
      incr uid;
      Dstruct.Wheel.push w ~key v;
      Dstruct.Pqueue.push q v
    end
    else begin
      let vw = Dstruct.Wheel.pop_exn w in
      let vq = Dstruct.Pqueue.pop_exn q in
      if vw <> vq then
        Alcotest.failf "divergence at uid %d: wheel (%d,%d) heap (%d,%d)"
          !uid (fst vw) (snd vw) (fst vq) (snd vq)
    end;
    if Dstruct.Wheel.length w <> Dstruct.Pqueue.length q then
      Alcotest.failf "length divergence: wheel %d heap %d"
        (Dstruct.Wheel.length w) (Dstruct.Pqueue.length q)
  done;
  (* Drain the remainder: the tail orders must agree too. *)
  while not (Dstruct.Wheel.is_empty w) do
    let vw = Dstruct.Wheel.pop_exn w in
    let vq = Dstruct.Pqueue.pop_exn q in
    check (Alcotest.pair int_t int_t) "drain order" vq vw
  done;
  check bool_t "heap drained too" true (Dstruct.Pqueue.is_empty q)

let test_differential_spread () =
  List.iter
    (fun seed -> run_differential ~seed ~ops:20_000 ~spread:5_000 ~burst:false ())
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

(* Steady-state wheel traffic must reuse its freelist: after a warm-up that
   sizes the pool, a push/pop-balanced loop allocates nothing. *)
let test_wheel_steady_state_alloc_free () =
  let w = Dstruct.Wheel.create ~dummy:0 () in
  for i = 0 to 63 do
    Dstruct.Wheel.push w ~key:i i
  done;
  let words =
    minor_words_of (fun () ->
        for i = 64 to 100_063 do
          ignore (Dstruct.Wheel.drop_exn w);
          Dstruct.Wheel.push w ~key:i i
        done)
  in
  check bool_t
    (Printf.sprintf "100k wheel push/pop cycles allocated %d minor words"
       words)
    true (words < 1_000)

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
   wheel+pools stack. Like test_rng's n=4 budget, the bound is ~1.4x the
   measured value — a breach means per-message allocation crept back into
   the scaled path (wheel cells, flights, or round cells). *)
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
          Alcotest.test_case "empty pop raises" `Quick test_empty_raises;
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
            test_wheel_steady_state_alloc_free;
          Alcotest.test_case "n=32 run budget" `Slow test_n32_run_budget;
          Alcotest.test_case "n=256 run budget" `Slow test_n256_run_budget;
          Alcotest.test_case "payload interning budget" `Slow
            test_payload_interning_budget;
        ] );
    ]
