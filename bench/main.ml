(* Bechamel benchmarks: one Test.make per experiment table (E1..E8, reduced
   workloads — the full tables come from bin/experiments.exe), plus
   micro-benchmarks of the substrate operations the simulator's throughput
   depends on.

   [--json PATH] additionally dumps every estimate (ns/run and minor words
   allocated/run) as machine-readable JSON, so successive PRs can diff
   performance (see BENCH_pr1.json for the first snapshot). *)

open Bechamel
open Toolkit

(* Run one complete small simulation: n processes, rotating star, given
   horizon; returns the message count so the work cannot be optimized out. *)
let sim_run ?(digest = false) ?(algo = `Gossip) ?(topology = Net.Topology.Complete) ~variant
    ~n ~horizon_ms () =
  let t = (n - 1) / 2 in
  let config = Omega.Config.default ~n ~t variant in
  let env =
    Scenarios.Env.make config
      (Scenarios.Scenario.Rotating_star { center = n - 2 })
  in
  let spec =
    Harness.Run.Spec.(
      default |> with_check false |> with_digest digest
      |> with_algo algo
      |> with_topology topology
      |> with_horizon (Sim.Time.of_ms horizon_ms))
  in
  let result = Harness.Run.run ~spec ~env ~seed:7L () in
  result.Harness.Run.messages_sent

(* Silence the tables while timing the experiment functions. *)
let muted f () =
  let dev_null = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel dev_null) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      close_out dev_null)
    f

(* e11 is excluded: the n-scaling sweep takes tens of seconds even under
   [--quick] (it exists to measure wall-clock, not to be benchmarked), and
   its n-scaling rows are covered directly by the micro:sim-1s-n* tests. *)
let experiment_tests =
  List.filter_map
    (fun (id, _doc, f) ->
      if id = "e11" then None
      else
        Some
          (Test.make ~name:("table:" ^ id)
             (Staged.stage
                (muted (fun () ->
                     f ~pool:Parallel.Pool.sequential ~quick:true
                       ~obs:Experiments.Suite.no_obs)))))
    Experiments.Suite.all

(* A mid-flight n=64 run for the snapshot/restore rows: built once, lazily
   (the fixture itself takes ~half a simulated second of work). *)
let snapshot_fixture =
  lazy
    (let n = 64 in
     let t = (n - 1) / 2 in
     let config = Omega.Config.default ~n ~t Omega.Config.Fig1 in
     let env =
       Scenarios.Env.make config
         (Scenarios.Scenario.Rotating_star { center = n - 2 })
     in
     let spec =
       Harness.Run.Spec.(
         default |> with_check false |> with_horizon (Sim.Time.of_sec 2))
     in
     let live = Harness.Run.start ~spec ~env ~seed:7L () in
     Harness.Run.advance live ~until:(Sim.Time.of_ms 500);
     live)

let snapshot_bytes = lazy (Harness.Run.snapshot (Lazy.force snapshot_fixture))

let micro_tests =
  [
    Test.make ~name:"micro:engine-10k-events"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create ~seed:1L () in
           for i = 1 to 10_000 do
             ignore (Sim.Engine.schedule_after engine (Sim.Time.of_us i) ignore)
           done;
           Sim.Engine.run_until engine (Sim.Time.of_sec 1)));
    Test.make ~name:"micro:rng-100k"
      (Staged.stage (fun () ->
           let rng = Dstruct.Rng.create 7L in
           let acc = ref 0 in
           for _ = 1 to 100_000 do
             acc := !acc + Dstruct.Rng.int rng 1000
           done;
           ignore !acc));
    Test.make ~name:"micro:sim-1s-n4-fig3"
      (Staged.stage (fun () ->
           ignore (sim_run ~variant:Omega.Config.Fig3 ~n:4 ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n8-fig1"
      (Staged.stage (fun () ->
           ignore (sim_run ~variant:Omega.Config.Fig1 ~n:8 ~horizon_ms:1000 ())));
    (* Same simulation with the digest sink live on every event — the price
       of full observability, vs the null-sink row above. *)
    Test.make ~name:"micro:sim-1s-n8-fig1+digest"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~digest:true ~variant:Omega.Config.Fig1 ~n:8
                ~horizon_ms:1000 ())));
    (* The n-scaling tier (DESIGN.md §13): the same simulated second as n
       grows, so per-message cost can be read across rows. *)
    Test.make ~name:"micro:sim-1s-n32-fig1"
      (Staged.stage (fun () ->
           ignore (sim_run ~variant:Omega.Config.Fig1 ~n:32 ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n64-fig1"
      (Staged.stage (fun () ->
           ignore (sim_run ~variant:Omega.Config.Fig1 ~n:64 ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n128-fig1"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~variant:Omega.Config.Fig1 ~n:128 ~horizon_ms:1000 ())));
    (* The communication-efficient relay tier (DESIGN.md §15): same oracle
       and seed as the fig rows, O(n) messages per round instead of n². Its
       hot path shares the allocation-free contract, so these rows sit
       under the strict-alloc gate like every micro: bench. *)
    Test.make ~name:"micro:sim-1s-n8-relay"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~algo:`Relay ~variant:Omega.Config.Fig3 ~n:8
                ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n64-relay"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~algo:`Relay ~variant:Omega.Config.Fig3 ~n:64
                ~horizon_ms:1000 ())));
    (* Routed topologies (DESIGN.md §17): the same n=64 second over a ring
       (diameter 32 — every send relays through ~16 pooled hops) and a
       fat-tree (diameter 3). The routed path shares the one-pooled-cell-
       per-hop allocation-free contract, so both sit under the strict-alloc
       gate. *)
    Test.make ~name:"micro:sim-1s-n64-ring"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~topology:Net.Topology.Ring ~variant:Omega.Config.Fig1
                ~n:64 ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n64-fattree"
      (Staged.stage (fun () ->
           ignore
             (sim_run
                ~topology:(Net.Topology.Fat_tree { rack = 4 })
                ~variant:Omega.Config.Fig1 ~n:64 ~horizon_ms:1000 ())));
    (* Snapshot/restore (DESIGN.md §16): marshal a mid-flight n=64 run and
       rebuild it. Both allocate by design (Marshal) — the contract is that
       the *null* path (no snapshot taken) stays allocation-free, which the
       sim-1s rows above pin; these rows track the checkpoint cost itself.
       Marshal output is deterministic for a fixed state, so the alloc
       estimate is stable under the strict-alloc gate. *)
    Test.make ~name:"micro:engine-snapshot-n64"
      (Staged.stage (fun () ->
           ignore (Harness.Run.snapshot (Lazy.force snapshot_fixture))));
    Test.make ~name:"micro:engine-restore-n64"
      (Staged.stage (fun () ->
           ignore (Harness.Run.restore (Lazy.force snapshot_bytes))));
  ]

(* The large-cluster tier (DESIGN.md §14): one simulated second at n = 256
   and n = 512. A single run is tens of wall-clock seconds, so like the
   macro tables they get the minimal-iteration config — the point of the
   rows is n-scaling and PR-over-PR drift, not microsecond resolution. *)
let large_micro_tests =
  [
    Test.make ~name:"micro:sim-1s-n256-fig1"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~variant:Omega.Config.Fig1 ~n:256 ~horizon_ms:1000 ())));
    Test.make ~name:"micro:sim-1s-n512-fig1"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~variant:Omega.Config.Fig1 ~n:512 ~horizon_ms:1000 ())));
    (* The relay variant at gossip-prohibitive scale: n = 256 in one
       simulated second is ~0.4M messages for the gossip family but only
       ~5k for the relay tier — the O(n) headline as wall-clock. *)
    Test.make ~name:"micro:sim-1s-n256-relay"
      (Staged.stage (fun () ->
           ignore
             (sim_run ~algo:`Relay ~variant:Omega.Config.Fig3 ~n:256
                ~horizon_ms:1000 ())));
  ]

(* micro:engine-pending-1k wobbled ±30% between identical builds under the
   2s quota, drowning bench_diff's clock warnings; it gets a longer quota
   and more samples. *)
let noisy_micro_tests =
  [
    Test.make ~name:"micro:engine-pending-1k"
      (Staged.stage (fun () ->
           (* [pending] amid a half-cancelled queue: O(1) counter reads,
              previously a sort of the whole queue per call. *)
           let engine = Sim.Engine.create ~seed:1L () in
           let handles =
             Array.init 1_000 (fun i ->
                 Sim.Engine.schedule_after engine (Sim.Time.of_us (i + 1)) ignore)
           in
           Array.iteri
             (fun i h -> if i mod 2 = 0 then Sim.Engine.cancel engine h)
             handles;
           let acc = ref 0 in
           for _ = 1 to 1_000 do
             acc := !acc + Sim.Engine.pending engine
           done;
           ignore !acc));
  ]

(* One result row: the OLS estimate per measure, keyed by the measure's
   label ("monotonic-clock" in ns/run, "minor-allocated" in words/run). *)
type row = { name : string; estimates : (string * float option) list }

let benchmark ~cfg tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  List.map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let estimates =
        List.map
          (fun instance ->
            let per_name = Analyze.all ols instance raw in
            let est = ref None in
            Hashtbl.iter
              (fun _key o ->
                match Analyze.OLS.estimates o with
                | Some [ e ] -> est := Some e
                | Some _ | None -> ())
              per_name;
            (Measure.label instance, !est))
          instances
      in
      { name = Test.name test; estimates })
    tests

let micro_cfg =
  Benchmark.cfg ~limit:50 ~stabilize:false ~quota:(Time.second 2.0) ()

(* Longer quota + more samples for the noisy rows: micro-second-scale
   bodies need many more iterations before OLS converges (see
   [noisy_micro_tests]). *)
let noisy_cfg =
  Benchmark.cfg ~limit:500 ~stabilize:true ~quota:(Time.second 5.0) ()

(* Each macro "run" is an entire (reduced) experiment: several simulations
   adding up to seconds of wall time — a couple of runs per table suffices. *)
let macro_cfg =
  Benchmark.cfg ~limit:2 ~stabilize:false ~quota:(Time.second 0.1) ()

let pretty_ns est =
  if est >= 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
  else if est >= 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
  else if est >= 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
  else Printf.sprintf "%.0f ns" est

let pretty_words est =
  if est >= 1e6 then Printf.sprintf "%.2f Mw" (est /. 1e6)
  else if est >= 1e3 then Printf.sprintf "%.1f kw" (est /. 1e3)
  else Printf.sprintf "%.0f w" est

let report rows =
  Printf.printf "%-28s %14s %14s\n" "benchmark" "time/run" "minor/run";
  Printf.printf "%s\n" (String.make 59 '-');
  List.iter
    (fun { name; estimates } ->
      let cell pretty label =
        match List.assoc_opt label estimates with
        | Some (Some est) -> pretty est
        | Some None | None -> "?"
      in
      Printf.printf "%-28s %14s %14s\n" name
        (cell pretty_ns "monotonic-clock")
        (cell pretty_words "minor-allocated"))
    rows;
  flush stdout

(* Minimal JSON writer — the values are benchmark names (plain ASCII) and
   floats, so only the basic string escapes matter. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_dump path rows =
  let oc = open_out path in
  output_string oc "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i { name; estimates } ->
      output_string oc (Printf.sprintf "    {\"name\": \"%s\"" (json_escape name));
      List.iter
        (fun (label, est) ->
          match est with
          | Some est ->
              output_string oc
                (Printf.sprintf ", \"%s\": %.3f" (json_escape label) est)
          | None ->
              output_string oc
                (Printf.sprintf ", \"%s\": null" (json_escape label)))
        estimates;
      output_string oc
        (if i = List.length rows - 1 then "}\n" else "},\n"))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nWrote %d estimates to %s\n" (List.length rows) path

let json_path () =
  let rec scan i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let () =
  print_endline "== micro benchmarks (substrate + simulator throughput) ==";
  let micro =
    benchmark ~cfg:micro_cfg micro_tests
    @ benchmark ~cfg:macro_cfg large_micro_tests
    @ benchmark ~cfg:noisy_cfg noisy_micro_tests
  in
  report micro;
  print_endline "";
  print_endline
    "== macro benchmarks: one Test.make per experiment table (reduced size) ==";
  let macro = benchmark ~cfg:macro_cfg experiment_tests in
  report macro;
  (match json_path () with
  | Some path -> json_dump path (micro @ macro)
  | None -> ());
  print_endline "";
  print_endline
    "Full experiment tables: dune exec bin/experiments.exe (see EXPERIMENTS.md)."
