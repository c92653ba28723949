(* Tests for snapshot/restore (DESIGN.md §16): a run cut by a mid-run
   snapshot and continued from the restored copy must be bit-identical —
   same digest, same aggregate results — to the uninterrupted run, for
   all three algorithms, faulted plans and the consensus and broadcast
   layers, sequential or sharded through a file; and snapshotting must
   never perturb the run it copies. A snapshot is one
   [Marshal.Closures] of the run, so any pending function rides along,
   a dynamic closure as much as a static task. Also the failure modes: a
   trace sink refuses to snapshot with a clean error and leaves the live
   run usable, and a checkpointed sweep refuses an interval that cannot
   advance the clock. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let str_t = Alcotest.string
let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

let digest_hex result =
  Obs.Digest.to_hex (Option.get result.Harness.Run.digest)

(* Straight run vs: the same run advanced to [cut], snapshotted, restored,
   and finished — and the snapshotted original finished too (snapshot must
   not perturb it). All three must agree exactly. Returns the straight
   run's result. *)
let differential ~msg ~spec ~env ~seed ~cut =
  let straight = Harness.Run.run ~spec ~env ~seed () in
  let live = Harness.Run.start ~spec ~env ~seed () in
  Harness.Run.advance live ~until:cut;
  let bytes = Harness.Run.snapshot live in
  let restored = Harness.Run.finish (Harness.Run.restore bytes) in
  let original = Harness.Run.finish live in
  let agree label a b =
    check str_t (msg ^ ": " ^ label ^ " digest") (digest_hex a) (digest_hex b);
    check int_t
      (msg ^ ": " ^ label ^ " messages")
      a.Harness.Run.messages_sent b.Harness.Run.messages_sent;
    check (Alcotest.option int_t)
      (msg ^ ": " ^ label ^ " leader")
      a.Harness.Run.final_leader b.Harness.Run.final_leader;
    check int_t
      (msg ^ ": " ^ label ^ " samples")
      (List.length a.Harness.Run.samples)
      (List.length b.Harness.Run.samples);
    check bool_t
      (msg ^ ": " ^ label ^ " layer outcomes")
      true
      (a.Harness.Run.outcomes = b.Harness.Run.outcomes)
  in
  agree "restored continuation" straight restored;
  agree "snapshotted original" straight original;
  straight

(* ------------------------------------------------------- the matrix *)

let matrix_env ~n variant =
  let t = (n - 1) / 2 in
  let config = Omega.Config.default ~n ~t variant in
  Scenarios.Env.make config
    (Scenarios.Scenario.Rotating_star { center = n - 2 })

let relay_env ~n =
  let t = (n - 1) / 2 in
  let config =
    {
      (Omega.Config.default ~n ~t Omega.Config.Fig3) with
      Omega.Config.initial_timeout = ms 10;
    }
  in
  Scenarios.Env.make config
    (Scenarios.Scenario.Rotating_star { center = n - 2 })

let test_matrix () =
  List.iter
    (fun n ->
      (* n=8 gets a 1 sim-s horizon; n=64 is ~50x the traffic, so a
         shorter slice keeps the suite's wall clock in budget while still
         snapshotting tens of thousands of pending flights. *)
      let horizon = if n = 8 then sec 1 else ms 400 in
      let cut = Sim.Time.of_us (Sim.Time.to_us horizon * 2 / 5) in
      let spec =
        Harness.Run.Spec.(
          default |> with_horizon horizon |> with_digest true
          |> with_check false)
      in
      List.iter
        (fun variant ->
          ignore
            (differential
               ~msg:(Printf.sprintf "n=%d fig" n)
               ~spec ~env:(matrix_env ~n variant) ~seed:7L ~cut))
        [ Omega.Config.Fig1; Omega.Config.Fig3 ];
      ignore
        (differential
           ~msg:(Printf.sprintf "n=%d relay" n)
           ~spec:Harness.Run.Spec.(spec |> with_algo `Relay)
           ~env:(relay_env ~n) ~seed:7L ~cut);
      (* The heartbeat's self-reposting task and its deadline timers are
         pending at every cut. *)
      ignore
        (differential
           ~msg:(Printf.sprintf "n=%d heartbeat" n)
           ~spec:Harness.Run.Spec.(spec |> with_algo `Heartbeat)
           ~env:(matrix_env ~n Omega.Config.Fig1) ~seed:7L ~cut))
    [ 8; 64 ]

let test_faulted () =
  (* test_fault's busy plan — a partition over the center, a crash with
     recovery, a duplication burst — with the snapshot cut inside the
     partition window, while the injector's heal/recover events are still
     pending. *)
  let busy_plan =
    Fault.Plan.(
      empty
      |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
      |> crash 0 ~at:(ms 600)
      |> recover 0 ~at:(ms 1200)
      |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))
  in
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  ignore
    (differential ~msg:"faulted"
       ~spec:
         Harness.Run.Spec.(
           default |> with_horizon (sec 2) |> with_digest true
           |> with_plan busy_plan)
       ~env ~seed:7L ~cut:(ms 700))

(* ------------------------------------------------------- consensus *)

(* E6's two stacks in miniature: Ω (Figure 3, n = 5, t = 2) under an
   intermittent star with a consensus layer — p1..p4 propose at 500 ms —
   or a broadcast layer — ten commands, one every 100 ms from p1, p2 and
   p3 in turn; p0 crashes at 200 ms in both. The layers' self-reposting
   tasks are packed events, so a cut must carry them; the cut at 550 ms
   falls after the proposals and before the decision. On the straight
   run every correct process (p1..p4) must decide one common value, or
   deliver all ten commands in one order. *)
let test_consensus_stacks () =
  let config = Omega.Config.default ~n:5 ~t:2 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Intermittent_star { center = 3; d = 4 })
  in
  let spec layer =
    Harness.Run.Spec.(
      default |> with_horizon (sec 3) |> with_digest true |> with_check false
      |> with_crashes [ (0, ms 200) ]
      |> with_layer layer)
  in
  List.iter
    (fun (msg, layer, settled) ->
      let straight =
        differential ~msg ~spec:(spec layer) ~env ~seed:11L ~cut:(ms 550)
      in
      match Array.to_list (Option.get straight.Harness.Run.outcomes) with
      | _p0 :: correct ->
          check bool_t (msg ^ ": the straight run settles") true
            (settled correct)
      | [] -> Alcotest.fail "no outcomes")
    [
      ( "single",
        Harness.Run.Spec.Consensus
          (List.init 4 (fun i -> (i + 1, ms 500, 101 + i))),
        function
        | Harness.Run.Decision { value = Some v; _ } :: _ as correct ->
            List.for_all
              (function
                | Harness.Run.Decision { value = Some w; _ } -> w = v
                | _ -> false)
              correct
        | _ -> false );
      ( "broadcast",
        Harness.Run.Spec.Broadcast
          (List.init 10 (fun c -> (1 + (c mod 3), ms (100 * c), c))),
        function
        | Harness.Run.Delivered cmds :: _ as correct ->
            List.length cmds = 10
            && List.for_all (( = ) (Harness.Run.Delivered cmds)) correct
        | _ -> false );
    ]

(* ------------------------------------------------------- pinned runs *)

(* The acceptance contract: snapshot -> restore -> continue reproduces the
   exact repo-pinned digests, not merely self-consistent ones. Configs are
   verbatim from test_obs / test_fault / test_omega_lean. *)

let restored_digest ~spec ~env ~cut =
  let live = Harness.Run.start ~spec ~env ~seed:7L () in
  Harness.Run.advance live ~until:cut;
  let restored = Harness.Run.restore (Harness.Run.snapshot live) in
  digest_hex (Harness.Run.finish restored)

let test_pinned_plain () =
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(default |> with_horizon (sec 2) |> with_digest true)
  in
  check str_t "plain pin through a snapshot" "d04e0b6bb1a89956"
    (restored_digest ~spec ~env ~cut:(ms 800))

let test_pinned_faulted () =
  let busy_plan =
    Fault.Plan.(
      empty
      |> partition ~at:(ms 500) ~heal_at:(ms 900) [ [ 2 ] ]
      |> crash 0 ~at:(ms 600)
      |> recover 0 ~at:(ms 1200)
      |> dup_burst ~at:(ms 1400) ~until:(ms 1500) ~extra:(ms 1))
  in
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 2) |> with_digest true
      |> with_plan busy_plan)
  in
  check str_t "faulted pin through a snapshot" "6974643acde923c2"
    (restored_digest ~spec ~env ~cut:(ms 800))

let test_pinned_relay () =
  let config =
    {
      (Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3) with
      Omega.Config.initial_timeout = ms 10;
    }
  in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_algo `Relay
      |> with_horizon (sec 2) |> with_digest true)
  in
  check str_t "relay pin through a snapshot" "dc1babe982945dd5"
    (restored_digest ~spec ~env ~cut:(ms 800))

(* ------------------------------------------------------- file round trip *)

(* The plain pin through a file, sequential and sharded over two domains:
   a sharded cut carries both shard replicas and their sealed outboxes. *)
let test_file_round_trip () =
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  List.iter
    (fun intra ->
      let spec =
        Harness.Run.Spec.(
          default |> with_horizon (sec 2) |> with_digest true
          |> with_intra_domains intra)
      in
      let live = Harness.Run.start ~spec ~env ~seed:7L () in
      Harness.Run.advance live ~until:(ms 800);
      let bytes = Harness.Run.snapshot live in
      let path = Filename.temp_file "snapshot" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_bytes oc bytes;
          close_out oc;
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let read = Bytes.create len in
          really_input ic read 0 len;
          close_in ic;
          let msg label = Printf.sprintf "intra=%d: %s" intra label in
          check int_t (msg "length round-trips") (Bytes.length bytes) len;
          let restored = Harness.Run.restore read in
          check str_t (msg "digest through the file") "d04e0b6bb1a89956"
            (digest_hex (Harness.Run.finish restored))))
    [ 1; 2 ]

(* ------------------------------------------------- engine slot store *)

(* The engine keeps pending events in fixed-size chunks of slots; a cut
   with thousands of live events must carry every chunk through the
   snapshot. 3000 self-rescheduling chains (closures, so the payload and
   handle columns hold blocks; every seventh chain cancelled) fold their
   fire order into [acc]: the restored continuation and the snapshotted
   original must both fold to the uninterrupted run's value. *)
type chains = { mutable acc : int; mutable fired : int }

let test_store_spans_chunks () =
  let horizon = ms 40 and cut = ms 5 in
  let build () =
    let e = Sim.Engine.create ~seed:3L () in
    let st = { acc = 0; fired = 0 } in
    let rng = Dstruct.Rng.create 5L in
    let rec hop id () =
      st.acc <-
        ((st.acc * 31) + (id * 1_000_003)
        + Sim.Time.to_us (Sim.Engine.now e))
        land max_int;
      st.fired <- st.fired + 1;
      if st.fired < 20_000 then
        ignore
          (Sim.Engine.schedule_after e
             (Sim.Time.of_us (1 + Dstruct.Rng.int rng 5_000))
             (hop id))
    in
    for id = 0 to 2_999 do
      let h =
        Sim.Engine.schedule_after e
          (Sim.Time.of_us (Dstruct.Rng.int rng 5_000))
          (hop id)
      in
      if id mod 7 = 0 then Sim.Engine.cancel e h
    done;
    (e, st)
  in
  let e, st = build () in
  Sim.Engine.run_until e horizon;
  let straight = (st.acc, st.fired) in
  let e, st = build () in
  Sim.Engine.run_until e cut;
  check bool_t "more live events than one chunk at the cut" true
    (Sim.Engine.pending e > 1024);
  let e', st' =
    (Marshal.from_bytes (Marshal.to_bytes (e, st) [ Marshal.Closures ]) 0
      : Sim.Engine.t * chains)
  in
  Sim.Engine.run_until e' horizon;
  Sim.Engine.run_until e horizon;
  let pair = Alcotest.pair int_t int_t in
  check pair "restored continuation" straight (st'.acc, st'.fired);
  check pair "snapshotted original" straight (st.acc, st.fired)

(* A dynamic closure as the packed fn marshals like any other value: the
   event fires after the snapshot, on the restored copy — into the
   copy's own counter — and on the original. *)
let test_closure_fn () =
  let engine = Sim.Engine.create ~seed:1L () in
  let hits = ref 0 in
  Sim.Engine.call_after engine (ms 1) (fun k -> hits := !hits + k) 2;
  let engine', hits' =
    (Marshal.from_bytes
       (Marshal.to_bytes (engine, hits) [ Marshal.Closures ])
       0
      : Sim.Engine.t * int ref)
  in
  Sim.Engine.run_until engine' (ms 2);
  check int_t "fires on the restored copy" 2 !hits';
  check int_t "the original is untouched" 0 !hits;
  Sim.Engine.run_until engine (ms 2);
  check int_t "fires on the original" 2 !hits;
  check int_t "the copy is untouched" 2 !hits'

(* ----------------------------------------------------------- refusals *)

(* A checkpoint interval that does not move the clock is refused before
   the first slice: such slices would rewrite one checkpoint forever. *)
let test_zero_checkpoint_interval_raises () =
  let obs =
    {
      Experiments.Suite.no_obs with
      checkpoint = Some (Filename.get_temp_dir_name (), Sim.Time.zero);
    }
  in
  let _, _, e3 =
    List.find (fun (id, _, _) -> id = "e3") Experiments.Suite.all
  in
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      match e3 ~pool ~quick:true ~obs with
      | () -> Alcotest.fail "e3 accepted a zero checkpoint interval"
      | exception Invalid_argument _ -> ())

let test_trace_sink_raises () =
  let config = Omega.Config.default ~n:4 ~t:1 Omega.Config.Fig3 in
  let env =
    Scenarios.Env.make config (Scenarios.Scenario.Rotating_star { center = 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_horizon (sec 1)
      |> with_sink (Obs.Sink.make ~mask:Obs.Event.all (fun _ -> ())))
  in
  let live = Harness.Run.start ~spec ~env ~seed:7L () in
  Harness.Run.advance live ~until:(ms 100);
  check bool_t "external sink refused" true
    (match Harness.Run.snapshot live with
    | (_ : Bytes.t) -> false
    | exception Invalid_argument _ -> true);
  (* Still finishes normally. *)
  let result = Harness.Run.finish live in
  check bool_t "run completes" true (result.Harness.Run.messages_sent > 0)

let () =
  Alcotest.run "snapshot"
    [
      ( "differential",
        [
          Alcotest.test_case "n x algo x sched matrix" `Quick test_matrix;
          Alcotest.test_case "faulted plan" `Quick test_faulted;
          Alcotest.test_case "consensus and broadcast stacks" `Quick
            test_consensus_stacks;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "plain pin" `Quick test_pinned_plain;
          Alcotest.test_case "faulted pin" `Quick test_pinned_faulted;
          Alcotest.test_case "relay pin" `Quick test_pinned_relay;
        ] );
      ( "file",
        [
          Alcotest.test_case "marshal round trip" `Quick test_file_round_trip;
        ] );
      ( "store",
        [
          Alcotest.test_case "live events span chunks" `Quick
            test_store_spans_chunks;
          Alcotest.test_case "closure as packed fn" `Quick test_closure_fn;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "trace sink" `Quick test_trace_sink_raises;
          Alcotest.test_case "zero checkpoint interval" `Quick
            test_zero_checkpoint_interval_raises;
        ] );
    ]
