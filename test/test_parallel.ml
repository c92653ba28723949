(* Tests for the parallel run farm: submission-order results, per-seed
   result equality between sequential and multi-domain pools, and the
   O(1) [Engine.pending] counter under schedule/cancel/step
   interleavings. *)

let check = Alcotest.check
let int_t = Alcotest.int
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

(* ------------------------------------------------------------- Pool *)

(* Unequal workloads so completion order differs from submission order on a
   real multi-domain pool; the result array must not care. *)
let spin k =
  let acc = ref 0 in
  for i = 1 to k * 100_000 do
    acc := !acc + (i mod 7)
  done;
  !acc

let test_pool_submission_order () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let thunks =
        Array.init 16 (fun i () ->
            ignore (spin (16 - i));
            i * i)
      in
      let results = Parallel.Pool.run pool thunks in
      Array.iteri
        (fun i r -> check int_t (Printf.sprintf "slot %d" i) (i * i) r)
        results)

let test_pool_map_order () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 20 (fun i -> i) in
      check
        (Alcotest.list int_t)
        "map keeps order"
        (List.map (fun x -> (2 * x) + 1) xs)
        (Parallel.Pool.map pool (fun x -> (2 * x) + 1) xs))

let test_pool_sequential_degenerate () =
  (* jobs:1 must not spawn domains and must behave like Array.map. *)
  let pool = Parallel.Pool.sequential in
  check int_t "jobs" 1 (Parallel.Pool.jobs pool);
  let order = ref [] in
  let thunks = Array.init 5 (fun i () -> order := i :: !order) in
  ignore (Parallel.Pool.run pool thunks);
  check (Alcotest.list int_t) "evaluated in order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

exception Boom of int

let test_pool_first_exception () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let thunks =
        Array.init 8 (fun i () -> if i mod 2 = 1 then raise (Boom i) else i)
      in
      match Parallel.Pool.run pool thunks with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
          check int_t "first failing index wins" 1 i)

(* ------------------------------------------------------------- Seeds *)

(* Everything deterministic in a result, digest first: a pooled run that
   shared mutable state with another task would move some of it. *)
let fingerprint (r : Harness.Run.result) =
  ( r.Harness.Run.digest,
    ( r.Harness.Run.stabilized_at,
      r.Harness.Run.final_leader,
      r.Harness.Run.messages_sent,
      r.Harness.Run.messages_delivered,
      r.Harness.Run.max_susp_level ),
    ( r.Harness.Run.re_elections,
      List.length r.Harness.Run.samples,
      Option.map
        (fun rep -> List.length rep.Scenarios.Checker.violations)
        r.Harness.Run.checker ) )

(* Six seeds, each with its own adversary plan, fanned over [pool];
   results come back in seed order. *)
let seed_runs pool =
  let n = 5 and t = 2 in
  let config = Omega.Config.default ~n ~t Omega.Config.Fig3 in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 15)
      |> with_crashes [ (0, sec 3) ]
      |> with_digest true)
  in
  Parallel.Pool.map pool
    (fun seed ->
      let env =
        Scenarios.Env.make ~scenario_seed:seed config
          (Scenarios.Scenario.Rotating_star { center = 3 })
      in
      fingerprint (Harness.Run.run ~spec ~env ~seed ()))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

let test_pool_results_equal_sequential () =
  let seq = seed_runs Parallel.Pool.sequential in
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "jobs=%d matches sequential, seed by seed" jobs)
        true
        (Parallel.Pool.with_pool ~jobs seed_runs = seq))
    [ 2; 4 ]

(* ----------------------------------------------------- Engine.pending *)

(* Drive the engine through a deterministic schedule/cancel/step interleaving
   while mirroring it in a naive model; [pending] (now an O(1) counter
   maintained at cancel time) must track the model exactly. *)
let test_pending_interleavings () =
  let engine = Sim.Engine.create ~seed:3L () in
  let rng = Dstruct.Rng.create 99L in
  let live = ref [] (* (id, handle), not yet fired or cancelled *)
  and next_id = ref 0
  and scheduled = Hashtbl.create 64 (* id -> fired? *) in
  let model_pending () = List.length !live in
  for round = 1 to 200 do
    (match Dstruct.Rng.int rng 4 with
    | 0 | 1 ->
        (* schedule an event at a pseudo-random future offset *)
        let id = !next_id in
        incr next_id;
        let delay = Sim.Time.of_us (1 + Dstruct.Rng.int rng 50) in
        let h =
          Sim.Engine.schedule_after engine delay (fun () ->
              Hashtbl.replace scheduled id true)
        in
        Hashtbl.replace scheduled id false;
        live := (id, h) :: !live
    | 2 ->
        (* cancel a pseudo-random live event; double-cancel sometimes *)
        (match !live with
        | [] -> ()
        | l ->
            let victim = Dstruct.Rng.int rng (List.length l) in
            let id, h = List.nth l victim in
            Sim.Engine.cancel engine h;
            Sim.Engine.cancel engine h;
            (* idempotent *)
            live := List.filter (fun (i, _) -> i <> id) !live)
    | _ ->
        (* run a slice of virtual time; fired events leave the model *)
        let upto =
          Sim.Time.add (Sim.Engine.now engine)
            (Sim.Time.of_us (Dstruct.Rng.int rng 30))
        in
        Sim.Engine.run_until engine upto;
        live := List.filter (fun (id, _) -> not (Hashtbl.find scheduled id)) !live);
    check int_t
      (Printf.sprintf "pending after op %d" round)
      (model_pending ()) (Sim.Engine.pending engine)
  done;
  (* Cancelling an already-fired handle must not corrupt the counter. *)
  let h = Sim.Engine.schedule_after engine (Sim.Time.of_us 1) ignore in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (ms 1));
  check int_t "idle" 0 (Sim.Engine.pending engine);
  Sim.Engine.cancel engine h;
  check int_t "cancel after fire is a no-op" 0 (Sim.Engine.pending engine)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick
            test_pool_submission_order;
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "sequential degenerate" `Quick
            test_pool_sequential_degenerate;
          Alcotest.test_case "first exception wins" `Quick
            test_pool_first_exception;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "pool results = sequential" `Slow
            test_pool_results_equal_sequential;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pending across interleavings" `Quick
            test_pending_interleavings;
        ] );
    ]
