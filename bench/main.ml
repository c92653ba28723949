(* Exact work counts for the fixed bench workloads: the input of CI's
   exact-count gate.

   Each row runs its workload once and prints the minor words it
   allocated, the words it allocated directly in the major heap, and the
   workload's own deterministic result. For one compiler and one binary
   every column reads the same in every run and at every minor-heap size
   tried, so the first line names the compiler and the gate is a plain
   diff:

     dune exec bench/main.exe | diff -u bench/counts.expected -

   Any change, up or down, fails the diff until bench/counts.expected is
   re-pinned in the same change. Wall time goes to stderr; a clock claim
   is a same-machine A/B (tools/perf_ab.py), not a row here. *)

(* The world every simulation row runs in: n processes, t = (n - 1) / 2,
   a rotating star centered on n - 2. *)
let env variant n =
  let t = (n - 1) / 2 in
  Scenarios.Env.make
    (Omega.Config.default ~n ~t variant)
    (Scenarios.Scenario.Rotating_star { center = n - 2 })

(* A mid-flight n = 64 run and its snapshot, built before any row is
   counted, for the snapshot/restore rows. *)
let snapshot_fixture =
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_horizon (Sim.Time.of_sec 2))
  in
  let live =
    Harness.Run.start ~spec ~env:(env Omega.Config.Fig1 64) ~seed:7L ()
  in
  Harness.Run.advance live ~until:(Sim.Time.of_ms 500);
  live

let snapshot_bytes = Harness.Run.snapshot snapshot_fixture

(* A row's workload returns something it computed anyway (an int or a
   value the run allocated), and [show] formats it only after the
   counters are read, so the formatting is not counted. *)
type row = Row : string * (unit -> 'a) * ('a -> string) -> row

(* One simulated second of a complete run, seed 7. *)
let sim name ?(digest = false) ?(algo = `Gossip)
    ?(topology = Net.Topology.Complete) variant n =
  let work () =
    let spec =
      Harness.Run.Spec.(
        default |> with_check false |> with_digest digest |> with_algo algo
        |> with_topology topology
        |> with_horizon (Sim.Time.of_sec 1))
    in
    Harness.Run.run ~spec ~env:(env variant n) ~seed:7L ()
  in
  Row
    ( name,
      work,
      fun r ->
        Printf.sprintf "sent %d delivered %d" r.Harness.Run.messages_sent
          r.Harness.Run.messages_delivered )

let bytes b = Printf.sprintf "bytes %d" (Bytes.length b)

let rows =
  [
    Row
      ( "micro:engine-10k-events",
        (fun () ->
          let engine = Sim.Engine.create ~seed:1L () in
          for i = 1 to 10_000 do
            ignore (Sim.Engine.schedule_after engine (Sim.Time.of_us i) ignore)
          done;
          Sim.Engine.run_until engine (Sim.Time.of_sec 1);
          engine),
        fun engine ->
          Printf.sprintf "events %d" (Sim.Engine.executed engine) );
    Row
      ( "micro:rng-100k",
        (fun () ->
          let rng = Dstruct.Rng.create 7L in
          let acc = ref 0 in
          for _ = 1 to 100_000 do
            acc := !acc + Dstruct.Rng.int rng 1000
          done;
          !acc),
        Printf.sprintf "sum %d" );
    sim "micro:sim-1s-n4-fig3" Omega.Config.Fig3 4;
    sim "micro:sim-1s-n8-fig1" Omega.Config.Fig1 8;
    (* The same run with the digest sink live on every event: the price of
       full observability, next to the null-sink row above. *)
    sim "micro:sim-1s-n8-fig1+digest" ~digest:true Omega.Config.Fig1 8;
    (* The n-scaling tier (DESIGN.md §13): the same simulated second as n
       grows, so per-message cost can be read across rows. *)
    sim "micro:sim-1s-n32-fig1" Omega.Config.Fig1 32;
    sim "micro:sim-1s-n64-fig1" Omega.Config.Fig1 64;
    sim "micro:sim-1s-n128-fig1" Omega.Config.Fig1 128;
    (* The communication-efficient relay tier (DESIGN.md §15): same oracle
       and seed, O(n) messages per round instead of n². *)
    sim "micro:sim-1s-n8-relay" ~algo:`Relay Omega.Config.Fig3 8;
    sim "micro:sim-1s-n64-relay" ~algo:`Relay Omega.Config.Fig3 64;
    (* Routed topologies (DESIGN.md §17): the same n = 64 second over a
       ring (diameter 32, every send relays through ~16 pooled hops) and a
       fat-tree (diameter 3). *)
    sim "micro:sim-1s-n64-ring" ~topology:Net.Topology.Ring Omega.Config.Fig1
      64;
    sim "micro:sim-1s-n64-fattree"
      ~topology:(Net.Topology.Fat_tree { rack = 4 })
      Omega.Config.Fig1 64;
    (* Snapshot/restore (DESIGN.md §16) of the mid-flight fixture. Both
       allocate by design (Marshal); the restore row's result is the size
       of the restored run's own snapshot, which must equal the
       snapshot row's. *)
    Row
      ( "micro:engine-snapshot-n64",
        (fun () -> Harness.Run.snapshot snapshot_fixture),
        bytes );
    Row
      ( "micro:engine-restore-n64",
        (fun () -> Harness.Run.restore snapshot_bytes),
        fun live -> bytes (Harness.Run.snapshot live) );
    (* The large-cluster tier (DESIGN.md §14), and the relay tier at a
       size where gossip is prohibitive. *)
    sim "micro:sim-1s-n256-fig1" Omega.Config.Fig1 256;
    sim "micro:sim-1s-n512-fig1" Omega.Config.Fig1 512;
    sim "micro:sim-1s-n256-relay" ~algo:`Relay Omega.Config.Fig3 256;
    Row
      ( "micro:engine-pending-1k",
        (fun () ->
          (* [pending] amid a half-cancelled queue: O(1) counter reads. *)
          let engine = Sim.Engine.create ~seed:1L () in
          let handles =
            Array.init 1_000 (fun i ->
                Sim.Engine.schedule_after engine
                  (Sim.Time.of_us (i + 1))
                  ignore)
          in
          Array.iteri
            (fun i h -> if i mod 2 = 0 then Sim.Engine.cancel engine h)
            handles;
          let acc = ref 0 in
          for _ = 1 to 1_000 do
            acc := !acc + Sim.Engine.pending engine
          done;
          !acc),
        Printf.sprintf "sum %d" );
  ]

(* Words allocated directly in the major heap: all major words less those
   minor collections promoted. [Gc.counters] allocates its result, so it is
   read outside the window [Gc.minor_words] brackets; its minor part lags
   until the next minor collection, so minor words come from
   [Gc.minor_words]. *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let count (Row (name, work, show)) =
  let t0 = Unix.gettimeofday () in
  let major0 = direct_major () in
  let minor0 = Gc.minor_words () in
  let result = work () in
  let minor1 = Gc.minor_words () in
  let major1 = direct_major () in
  let t1 = Unix.gettimeofday () in
  Printf.printf "%-28s minor %10.0f  major %8.0f  %s\n%!" name
    (minor1 -. minor0) (major1 -. major0) (show result);
  Printf.eprintf "%-28s %8.2f s\n%!" name (t1 -. t0)

let () =
  Printf.printf "ocaml %s\n" Sys.ocaml_version;
  List.iter count rows
