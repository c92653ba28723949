(* The repository benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--smoke] [--perturb]

   --trace 0 (timed mode) repeats the workload's operation for S seconds
   with tracing off and reports the end-to-end metrics. --trace 1 (traced
   mode) reports the per-layer metrics: spans around the public calls into
   each layer, exact event counts from a counting sink, and fixed-shape
   probes of each layer. Both modes run an untimed verification pass for
   the seed and check every operation's output against it; the last line
   of stdout is one JSON object with the keys correct, attempted, failed
   and metrics. --smoke shrinks every workload to a few seconds (for the
   benchmark's own tests); --perturb corrupts the expected output, so that
   every operation must be counted as failed. Spans and the sweep's
   captured output go to .bench_build/perfbench. See README.md. *)

module Run = Harness.Run

let now = Unix.gettimeofday
let median = Probes.median

(* {1 Command line} *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  perturb : bool;
}

let out_dir = Filename.concat ".bench_build" "perfbench"

let parse_args () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and perturb = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 timed or traced mode");
      ("--smoke", Arg.Set smoke, " smoke-test sizes");
      ("--perturb", Arg.Set perturb, " corrupt the expected output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    smoke = !smoke;
    perturb = !perturb;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* {1 Workloads} *)

(* One simulated world and how the operation drives it. *)
type sim = {
  n : int;
  algo : [ `Gossip | `Relay ];
  topology : Net.Topology.kind;
  channel : Net.Topology.channel;
  check : bool;
  horizon : Sim.Time.t;
  slice : Sim.Time.t option;
      (** advance in slices of this length, snapshotting after each one and
          restoring once mid-run; [None] = one advance to the horizon *)
  plan : Fault.Plan.t;
}

type workload = Sim of { sim : sim; intra : int } | Sweep

let gossip ~smoke =
  {
    n = (if smoke then 16 else 128);
    algo = `Gossip;
    topology = Net.Topology.Complete;
    channel = Net.Topology.Reliable;
    check = false;
    horizon = Sim.Time.of_ms (if smoke then 200 else 250);
    slice = None;
    plan = Fault.Plan.empty;
  }

let relay ~smoke =
  let n = if smoke then 32 else 256 and secs = if smoke then 4 else 8 in
  let at pct = Sim.Time.of_ms (secs * 10 * pct) in
  {
    n;
    algo = `Relay;
    topology = Net.Topology.Fat_tree { rack = 4 };
    channel =
      Net.Topology.Eventually_timely
        { gst = Sim.Time.of_sec 2; bound = Sim.Time.of_ms 2 };
    check = false;
    horizon = Sim.Time.of_sec secs;
    slice = Some (Sim.Time.of_sec 1);
    plan =
      Fault.Plan.(
        empty
        |> crash 5 ~at:(at 25)
        |> recover 5 ~at:(at 50)
        |> cut_rack 3 ~at:(at 40) ~heal_at:(at 70) ());
  }

(* The typical run of the sweep (n = 8, t = 3, center 6, 20 sim-s, checker
   on): its per-layer counts and probes stand for sweep-quick, whose
   hundreds of runs are built inside Experiments.Suite. *)
let sweep_shape =
  {
    (gossip ~smoke:false) with
    n = 8;
    check = true;
    horizon = Sim.Time.of_sec 20;
  }

let workload_of ~smoke = function
  | "gossip-n128" -> Some (Sim { sim = gossip ~smoke; intra = 1 })
  | "gossip-n128-k2" -> Some (Sim { sim = gossip ~smoke; intra = 2 })
  | "relay-fattree-faults" -> Some (Sim { sim = relay ~smoke; intra = 1 })
  | "sweep-quick" -> Some Sweep
  | _ -> None

(* Seed N runs the engine on seed N and fixes the scenario plan with seed
   N + 35, so the default seed 7 is the pair (7, 42). *)
let env_of sim ~seed =
  let config =
    Omega.Config.default ~n:sim.n ~t:((sim.n - 1) / 2) Omega.Config.Fig3
  in
  Scenarios.Env.make
    ~scenario_seed:(Int64.of_int (seed + 35))
    config
    (Scenarios.Scenario.Rotating_star { center = sim.n - 2 })

let spec_of sim ?(digest = false) ?sink ~intra () =
  let { check; horizon; algo; topology; channel; plan; _ } = sim in
  let spec =
    Run.Spec.(
      default |> with_check check |> with_horizon horizon |> with_algo algo
      |> with_topology topology |> with_link_channel channel |> with_plan plan
      |> with_intra_domains intra |> with_digest digest)
  in
  match sink with None -> spec | Some s -> Run.Spec.with_sink s spec

(* {1 One operation} *)

type op = {
  result : Run.result;
  total : float;  (** Env.make through Run.finish *)
  start : float;  (** Run.start *)
  simulate : float;  (** the Run.advance calls *)
  finish : float;  (** Run.finish *)
  snaps : float list;  (** each Run.snapshot *)
  snap_bytes : int list;  (** each snapshot's size, in order *)
  restore : float;  (** the Run.restore, 0 when none *)
  cpu : float;  (** process CPU seconds over the operation *)
  minor_words : float;  (** allocated during the advance calls *)
  major_collections : int;  (** during the advance calls *)
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Setup through finish. With [intra > 1] the run goes through Run.run
   (Run.start builds only the sequential stack), so its phases are not
   separated. [checkpoints] snapshots after every slice but the last and
   continues the middle one on its restored copy. *)
let run_sim sim ~seed ~intra ?digest ?sink ~checkpoints () =
  Gc.compact ();
  let t0 = now () and c0 = cpu_time () in
  let env = Spans.with_span "scenarios.env_make" (fun () -> env_of sim ~seed) in
  let spec = spec_of sim ?digest ?sink ~intra () in
  let seed = Int64.of_int seed in
  if intra > 1 then begin
    let result =
      Spans.with_span "harness.run" (fun () -> Run.run ~spec ~env ~seed ())
    in
    {
      result;
      total = now () -. t0;
      start = nan;
      simulate = nan;
      finish = nan;
      snaps = [];
      snap_bytes = [];
      restore = 0.;
      cpu = cpu_time () -. c0;
      minor_words = nan;
      major_collections = 0;
    }
  end
  else begin
    let live =
      Spans.with_span "harness.start" (fun () -> Run.start ~spec ~env ~seed ())
    in
    let start = now () -. t0 in
    let simulate = ref 0. and words = ref 0. and majors = ref 0 in
    let snaps = ref [] and snap_bytes = ref [] and restore = ref 0. in
    let advance live until =
      let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).major_collections in
      let a = now () in
      Spans.with_span "harness.advance" (fun () -> Run.advance live ~until);
      simulate := !simulate +. (now () -. a);
      words := !words +. (Gc.minor_words () -. w0);
      majors := !majors + (Gc.quick_stat ()).major_collections - m0
    in
    let live =
      match sim.slice with
      | None ->
          advance live sim.horizon;
          live
      | Some slice ->
          let slices = (sim.horizon + slice - 1) / slice in
          let rec go live k =
            if k > slices then live
            else begin
              advance live (min sim.horizon (k * slice));
              if checkpoints && k < slices then begin
                let a = now () in
                let bytes =
                  Spans.with_span "harness.snapshot" (fun () ->
                      Run.snapshot live)
                in
                snaps := (now () -. a) :: !snaps;
                snap_bytes := Bytes.length bytes :: !snap_bytes;
                if k = slices / 2 then begin
                  let a = now () in
                  let restored =
                    Spans.with_span "harness.restore" (fun () ->
                        Run.restore bytes)
                  in
                  restore := now () -. a;
                  go restored (k + 1)
                end
                else go live (k + 1)
              end
              else go live (k + 1)
            end
          in
          go live 1
    in
    let f0 = now () in
    let result = Spans.with_span "harness.finish" (fun () -> Run.finish live) in
    let t1 = now () in
    {
      result;
      total = t1 -. t0;
      start;
      simulate = !simulate;
      finish = t1 -. f0;
      snaps = List.rev !snaps;
      snap_bytes = List.rev !snap_bytes;
      restore = !restore;
      cpu = cpu_time () -. c0;
      minor_words = !words;
      major_collections = !majors;
    }
  end

(* Env.make to a started run. A sharded run has no separately started
   state, so for [intra > 1] this is Env.make plus a Run.run whose horizon
   is 1 µs: building the shard replicas and their domains, and nothing
   simulated. *)
let setup_once sim ~seed ~intra =
  let t0 = now () in
  let env = env_of sim ~seed in
  let seed = Int64.of_int seed in
  if intra = 1 then
    ignore (Run.start ~spec:(spec_of sim ~intra ()) ~env ~seed ())
  else
    ignore
      (Run.run
         ~spec:(spec_of sim ~intra () |> Run.Spec.with_horizon (Sim.Time.of_us 1))
         ~env ~seed ());
  now () -. t0

(* What an operation's output check compares: equal tuples, equal runs. *)
let outcome (r : Run.result) =
  let opt = function None -> "-" | Some x -> string_of_int x in
  Printf.sprintf "sent=%d delivered=%d leader=%s stabilized_at=%s max_susp=%d"
    r.messages_sent r.messages_delivered (opt r.final_leader)
    (opt r.stabilized_at) r.max_susp_level

let digest_hex (r : Run.result) =
  match r.digest with Some d -> Obs.Digest.to_hex d | None -> "-"

(* {1 The sweep} *)

let sweep_tables ~smoke =
  List.filter
    (fun (id, _, _) -> if smoke then id = "e3" else id <> "e11")
    Experiments.Suite.all

(* Run the sweep's tables on a [jobs]-job pool with stdout and stderr
   captured in {!out_dir}. Returns the MD5 of the captured tables and the
   time of pool creation plus the tables, in wall seconds and at the
   reference speed: each table runs between calibration loops of its own
   (see {!Calib}), as a sweep is too long for one scale to cover it. *)
let run_sweep ~smoke ~jobs =
  let tables = Filename.concat out_dir "sweep-tables.txt" in
  let log = Filename.concat out_dir "sweep-stderr.txt" in
  flush stdout;
  flush stderr;
  let saved_out = Unix.dup Unix.stdout and saved_err = Unix.dup Unix.stderr in
  let redirect path fd =
    let f = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Unix.dup2 f fd;
    Unix.close f
  in
  redirect tables Unix.stdout;
  redirect log Unix.stderr;
  Gc.compact ();
  let wall = ref 0. and scaled = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      flush stderr;
      Unix.dup2 saved_out Unix.stdout;
      Unix.dup2 saved_err Unix.stderr;
      Unix.close saved_out;
      Unix.close saved_err)
    (fun () ->
      let pool, create =
        Probes.timed (fun () ->
            Spans.with_span "parallel.pool_create" (fun () ->
                Parallel.Pool.create ~jobs ()))
      in
      wall := create;
      scaled := create;
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun (id, _, f) ->
              let ((), dt), scale =
                Calib.around (fun () ->
                    Probes.timed (fun () ->
                        Spans.with_span ("experiments." ^ id) (fun () ->
                            f ~pool ~quick:true ~obs:Experiments.Suite.no_obs)))
              in
              wall := !wall +. dt;
              scaled := !scaled +. (dt *. scale))
            (sweep_tables ~smoke)));
  (Digest.to_hex (Digest.file tables), !wall, !scaled)

(* {1 Verification pass} *)

let peak_heap_mb () =
  float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

type verdict = {
  reference : string;  (** what every operation's output must equal *)
  ok : bool;  (** the pass's own equivalences (and pins) held *)
}

(* [runs] are [(label, outcome, digest)] that must all agree; for the
   default seed the first is also compared with its pinned values. *)
let verdict_of ~args runs =
  let _, o0, d0 = List.hd runs in
  let agree =
    List.for_all
      (fun (label, o, d) ->
        let same = String.equal o o0 && String.equal d d0 in
        if not same then
          Printf.printf "verify: %s disagrees: %s %s vs %s %s\n" label o d o0
            d0;
        same)
      runs
  in
  let pin_ok =
    match List.assoc_opt args.workload Pinned.expected with
    | Some (o, d) when args.seed = 7 && not args.smoke ->
        let same = String.equal o o0 && String.equal d d0 in
        if not same then
          Printf.printf "verify: seed 7 pinned %s %s, got %s %s\n" o d o0 d0;
        same
    | _ -> true
  in
  List.iter (fun (label, o, d) -> Printf.printf "verify: %s %s %s\n" label o d) runs;
  let reference = if args.perturb then o0 ^ " (perturbed)" else o0 in
  { reference; ok = agree && pin_ok }

(* The pass runs first in the process, and its first run is sequential in
   every workload, so the peak heap read after that run is a deterministic
   function of the seed: the [peak_heap_mb] the pass returns beside its
   verdict. *)
let verify_sim ~args sim ~intra =
  let seed = args.seed in
  let row label r = (label, outcome r, digest_hex r) in
  let peak = ref 0. in
  let first label r =
    peak := peak_heap_mb ();
    row label r
  in
  let runs =
    Spans.with_span "verify" (fun () ->
        if sim.slice <> None then begin
          let sliced =
            run_sim sim ~seed ~intra:1 ~digest:true ~checkpoints:true ()
          in
          let sliced = first "snapshot-restore" sliced.result in
          let whole =
            Run.run
              ~spec:(spec_of sim ~digest:true ~intra:1 ())
              ~env:(env_of sim ~seed) ~seed:(Int64.of_int seed) ()
          in
          [ sliced; row "uninterrupted" whole ]
        end
        else begin
          let k1 = run_sim sim ~seed ~intra:1 ~digest:true ~checkpoints:false () in
          let k1 = first "k1" k1.result in
          if intra = 1 then [ k1 ]
          else
            let k2 = run_sim sim ~seed ~intra ~digest:true ~checkpoints:false () in
            [ k1; row "k2" k2.result ]
        end)
  in
  (verdict_of ~args runs, !peak)

let verify_sweep ~args =
  let md5, wall, _ =
    Spans.with_span "verify" (fun () ->
        run_sweep ~smoke:args.smoke ~jobs:1)
  in
  let peak = peak_heap_mb () in
  (verdict_of ~args [ ("jobs-1", md5, "-") ], wall, peak)

(* {1 Reporting} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let emit ~correct ~attempted ~failed metrics =
  Printf.printf "failed_ratio %.4f (%d of %d operations)\n" (float failed /. float (max 1 attempted)) failed attempted;
  List.iter
    (fun { name; value; unit_ } -> Printf.printf "%-28s %14.6g %s\n" name value unit_)
    metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num value)
          unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let setup_reps = 11

(* {1 Timed mode} *)

(* Repeat [op] until [seconds] have passed, at least once, not starting an
   operation that would end more than half its length past the deadline. *)
let repeat ~seconds op =
  let t0 = now () in
  let timed_op () = Probes.timed op in
  let first, last = timed_op () in
  let rec go acc last =
    if now () -. t0 +. (last /. 2.) >= seconds then List.rev acc
    else
      let x, last = timed_op () in
      go (x :: acc) last
  in
  go [ first ] last

(* [(wall seconds, seconds at the reference speed)] of [f]'s call, [wall]
   reading the wall time the call measured of itself. *)
let scaled_by_loops wall f =
  let x, scale = Calib.around f in
  (x, (wall x, wall x *. scale))

(* The end-to-end metrics of the timed mode from [(wall, scaled)] times,
   the raw wall times printed beside them. *)
let timed_metrics ~setups ~ops ~peak =
  let medians l = (median (List.map fst l), median (List.map snd l)) in
  let setup_wall, setup_s = medians setups and total_wall, total_s = medians ops in
  Printf.printf "setup_wall_s %.6f, total_wall_s %.6f (unscaled medians)\n"
    setup_wall total_wall;
  Printf.printf "each operation (wall s, at reference speed): %s\n"
    (String.concat " "
       (List.map (fun (w, s) -> Printf.sprintf "%.4f/%.4f" w s) ops));
  [
    m "setup_s" "s" setup_s;
    m "total_s" "s" total_s;
    m "peak_heap_mb" "MB" peak;
  ]

let timed_sim args sim ~intra =
  let seed = args.seed in
  let v, peak = verify_sim ~args sim ~intra in
  let setups =
    List.init setup_reps (fun _ ->
        snd (scaled_by_loops Fun.id (fun () -> setup_once sim ~seed ~intra)))
  in
  let checkpoints = sim.slice <> None in
  let ops =
    repeat ~seconds:args.seconds (fun () ->
        scaled_by_loops (fun op -> op.total) (fun () ->
            run_sim sim ~seed ~intra ~checkpoints ()))
  in
  let ops_only = List.map fst ops in
  let failed =
    List.length
      (List.filter
         (fun op -> not (String.equal (outcome op.result) v.reference))
         ops_only)
  in
  let setup_wall = median (List.map fst setups) in
  let times = List.map snd ops in
  let simulate op = if intra > 1 then op.total -. setup_wall else op.simulate in
  let sent = float (List.hd ops_only).result.messages_sent in
  let horizon_s = float sim.horizon /. 1e6 in
  let info =
    [
      m "wall_per_sim_s" "s/sim-s"
        (median (List.map (fun op -> simulate op /. horizon_s) ops_only));
      m "ns_per_msg" "ns"
        (median (List.map (fun op -> 1e9 *. simulate op /. sent) ops_only));
    ]
    @
    if checkpoints then
      [
        m "checkpoint_s" "s" (median (List.concat_map (fun op -> op.snaps) ops_only));
        m "checkpoint_mb" "MB"
          (median
             (List.map
                (fun op ->
                  float (List.nth op.snap_bytes (List.length op.snap_bytes - 1))
                  /. 1e6)
                ops_only));
        m "restore_s" "s" (median (List.map (fun op -> op.restore) ops_only));
      ]
    else []
  in
  List.iter
    (fun { name; value; unit_ } -> Printf.printf "%-28s %14.6g %s\n" name value unit_)
    info;
  Printf.printf "operations: %d, outcome %s\n" (List.length ops) v.reference;
  ( v.ok && failed = 0,
    List.length ops,
    failed,
    timed_metrics ~setups ~ops:times ~peak )

(* A ready 2-job pool: creation plus the first run, which spawns the
   worker domain. *)
let pool_setup () =
  let pool, dt =
    Probes.timed (fun () ->
        let pool = Parallel.Pool.create ~jobs:2 () in
        ignore (Parallel.Pool.run pool [| ignore; ignore |]);
        pool)
  in
  Parallel.Pool.shutdown pool;
  dt

let timed_sweep args =
  let v, _, peak = verify_sweep ~args in
  let setups =
    List.init setup_reps (fun _ -> snd (scaled_by_loops Fun.id pool_setup))
  in
  let ops =
    repeat ~seconds:args.seconds (fun () -> run_sweep ~smoke:args.smoke ~jobs:2)
  in
  let failed =
    List.length
      (List.filter (fun (md5, _, _) -> not (String.equal md5 v.reference)) ops)
  in
  Printf.printf "operations: %d, tables md5 %s\n" (List.length ops) v.reference;
  ( v.ok && failed = 0,
    List.length ops,
    failed,
    timed_metrics ~setups ~ops:(List.map (fun (_, w, s) -> (w, s)) ops) ~peak )

(* {1 Traced mode} *)

let per_layer_units =
  [
    ("wall_per_sim_s", "s/sim-s");
    ("ns_per_msg", "ns");
    ("checkpoint_s", "s");
    ("checkpoint_mb", "MB");
    ("restore_s", "s");
    ("failed_ratio", "ratio");
    ("sim.events_per_msg", "events/msg");
    ("sim.cancels_per_msg", "cancels/msg");
    ("sim.ns_per_event", "ns");
    ("net.ns_per_delivery", "ns");
    ("net.ns_per_hop", "ns");
    ("net.hops_per_msg", "hops/msg");
    ("net.drop_ratio", "ratio");
    ("scenarios.oracle_ns", "ns");
    ("scenarios.env_build_s", "s");
    ("omega.alive_ns_merged", "ns");
    ("omega.alive_ns_skipped", "ns");
    ("omega.suspicion_ns", "ns");
    ("omega.rounds_closed", "1/sim-s");
    ("omega.suspicion_raises", "1/sim-s");
    ("omega.leader_changes", "1/sim-s");
    ("omega.relay_rounds", "1/sim-s");
    ("omega.accusations", "1/sim-s");
    ("omega.residual_ns_per_msg", "ns");
    ("harness.start_s", "s");
    ("harness.advance_s", "s");
    ("harness.finish_s", "s");
    ("harness.snapshot_s", "s");
    ("harness.snapshot_bytes_first", "bytes");
    ("harness.snapshot_bytes_last", "bytes");
    ("harness.restore_s", "s");
    ("harness.intra_speedup", "x");
    ("harness.intra_cpu_per_wall", "ratio");
    ("fault.events", "count");
    ("parallel.task_us", "us");
    ("parallel.speedup", "x");
  ]
  @ List.filter_map
      (fun (id, _, _) ->
        if id = "e11" then None else Some ("experiments." ^ id ^ "_s", "s"))
      Experiments.Suite.all
  @ [
      ("gc.minor_words_per_msg", "words/msg");
      ("gc.major_collections", "count");
      ("trace.overhead", "ratio");
      ("ledger.coverage", "ratio");
    ]

(* Probe sizes: enough work per repetition to time tens of milliseconds. *)
let probe_work ~smoke = if smoke then 20_000 else 200_000

(* Env.make plus Env.build on a fresh engine, median of a few. *)
let env_build_s sim ~seed =
  median
    (List.init 5 (fun _ ->
         snd
           (Probes.timed (fun () ->
                let env = env_of sim ~seed in
                Scenarios.Env.build ~topology:sim.topology ~channel:sim.channel
                  env
                  (Sim.Engine.create ~seed:(Int64.of_int seed) ())))))

(* Per-layer metrics of one simulated subject. [base] are untraced
   sequential operations of the subject, [traced] one more with [counts]
   attached; [measured_ns] is the workload's own untraced ns per message,
   against which the cost ledger is drawn. *)
let sim_layers ~args sim ~base ~(traced : op) ~(counts : Counting.t)
    ~measured_ns =
  let smoke = args.smoke and seed = args.seed in
  let work = probe_work ~smoke in
  let c = counts in
  let send = float (max 1 c.send) in
  let per_msg x = float x /. send in
  let horizon_s = float sim.horizon /. 1e6 in
  let per_sim_s x = float x /. horizon_s in
  let direct = sim.topology = Complete && sim.channel = Reliable in
  let delays = Probes.delays_of_histogram ~seed c.delay_log2 in
  let depth = Counting.mean_depth c in
  let engine_ns =
    Probes.engine_ns ~depth ~delays ~events:(min (20 * work) (max work (4 * depth)))
  in
  let rounds = max 1 (work / (sim.n * (sim.n - 1))) in
  let delivery_ns = Probes.net_ns ~n:sim.n ~routed:None ~rounds in
  let hop_ns =
    Probes.net_ns ~n:sim.n ~routed:(Some (sim.topology, sim.channel))
      ~rounds:(max 1 (rounds / 3))
  in
  let env = env_of sim ~seed in
  let mix =
    List.map (fun k -> (k, Counting.sends_of c k)) [ "alive"; "susp"; "hb"; "agg"; "accuse" ]
  in
  let oracle_ns = Probes.oracle_ns ~env ~mix ~calls:work in
  let config = Scenarios.Env.config env in
  let node shape = Probes.node_ns ~config ~shape ~calls:(work / 4) in
  let alive_merged = node `Merged and alive_skipped = node `Skipped in
  let suspicion_ns = node `Suspicion in
  (* The cost ledger: probe ns x count per message, layer by layer; the
     handler rows come last, so that what precedes them is the cost the
     omega residual is taken against. *)
  let deliveries = per_msg c.deliver in
  let hop_execs = per_msg (c.hop + c.deliver) in
  let below_omega =
    [
      ("sim", engine_ns, per_msg c.fire);
      (if direct then ("net", delivery_ns, deliveries)
       else ("net", hop_ns, hop_execs));
      ("scenarios", oracle_ns, if direct then 1. else hop_execs);
    ]
  in
  let handlers =
    [
      ("omega.alive", alive_merged, per_msg (Counting.sends_of c "alive") *. deliveries);
      ("omega.suspicion", suspicion_ns, per_msg (Counting.sends_of c "susp") *. deliveries);
    ]
  in
  let cost rows = List.fold_left (fun acc (_, ns, count) -> acc +. (ns *. count)) 0. rows in
  let explained = cost below_omega +. cost handlers in
  Printf.printf "cost ledger (ns per message; measured %.1f ns):\n" measured_ns;
  List.iter
    (fun (layer, ns, count) ->
      Printf.printf "  %-16s %10.1f ns x %8.3f /msg = %10.1f ns\n" layer ns count
        (ns *. count))
    (below_omega @ handlers);
  Printf.printf "  %-16s %45.1f ns (coverage %.3f)\n" "explained" explained
    (explained /. measured_ns);
  let untraced_core op = op.total -. List.fold_left ( +. ) 0. op.snaps -. op.restore in
  let base_median f = median (List.map f base) in
  [
    m "sim.events_per_msg" "events/msg" (per_msg c.fire);
    m "sim.cancels_per_msg" "cancels/msg" (per_msg c.cancel);
    m "sim.ns_per_event" "ns" engine_ns;
    m "net.ns_per_delivery" "ns" delivery_ns;
    m "net.ns_per_hop" "ns" hop_ns;
    m "net.hops_per_msg" "hops/msg" (per_msg c.hop);
    m "net.drop_ratio" "ratio" (per_msg (c.drop + c.link_drop));
    m "scenarios.oracle_ns" "ns" oracle_ns;
    m "scenarios.env_build_s" "s" (env_build_s sim ~seed);
    m "omega.alive_ns_merged" "ns" alive_merged;
    m "omega.alive_ns_skipped" "ns" alive_skipped;
    m "omega.suspicion_ns" "ns" suspicion_ns;
    m "omega.rounds_closed" "1/sim-s" (per_sim_s c.round_close);
    m "omega.suspicion_raises" "1/sim-s" (per_sim_s c.suspicion);
    m "omega.leader_changes" "1/sim-s" (per_sim_s c.leader_change);
    m "omega.relay_rounds" "1/sim-s" (per_sim_s c.relay_round);
    m "omega.accusations" "1/sim-s" (per_sim_s c.accusation);
    m "omega.residual_ns_per_msg" "ns" (measured_ns -. cost below_omega);
    m "harness.start_s" "s" (base_median (fun op -> op.start));
    m "harness.advance_s" "s" (base_median (fun op -> op.simulate));
    m "harness.finish_s" "s" (base_median (fun op -> op.finish));
    m "fault.events" "count" (float c.fault);
    m "gc.minor_words_per_msg" "words/msg"
      (base_median (fun op -> op.minor_words /. float op.result.messages_sent));
    m "gc.major_collections" "count" (base_median (fun op -> float op.major_collections));
    m "trace.overhead" "ratio" ((traced.total /. base_median untraced_core) -. 1.);
    m "ledger.coverage" "ratio" (explained /. measured_ns);
    m "parallel.task_us" "us" (Probes.pool_task_us ~tasks:(work / 20));
  ]

(* Run [n] untraced sequential operations and one with a counting sink. *)
let subject_runs sim ~seed ~n ~checkpoints =
  let base = List.init n (fun _ -> run_sim sim ~seed ~intra:1 ~checkpoints ()) in
  let counts = Counting.create () in
  let traced =
    Spans.with_span "traced" (fun () ->
        run_sim sim ~seed ~intra:1 ~sink:(Counting.sink counts) ~checkpoints:false ())
  in
  (base, traced, counts)

let traced_sim args sim ~intra =
  let seed = args.seed in
  let v, _ = verify_sim ~args sim ~intra in
  let checkpoints = sim.slice <> None in
  let base, traced, counts = subject_runs sim ~seed ~n:2 ~checkpoints in
  (* The gossip spec also runs sharded, for the window-protocol metrics; a
     traced run cannot (an attached sink forces sequential execution), so
     gossip-n128-k2 takes its counts from the identical sequential run. *)
  let sharded =
    if sim.algo = `Gossip then
      List.init 2 (fun _ -> run_sim sim ~seed ~intra:2 ~checkpoints:false ())
    else []
  in
  let own = if intra > 1 then sharded else base in
  let ops = base @ sharded in
  let failed =
    List.length
      (List.filter (fun op -> not (String.equal (outcome op.result) v.reference)) ops)
  in
  let sent = float traced.result.messages_sent in
  let horizon_s = float sim.horizon /. 1e6 in
  let setup_k2 =
    if intra > 1 then median (List.init 5 (fun _ -> setup_once sim ~seed ~intra)) else 0.
  in
  let simulate op = if intra > 1 then op.total -. setup_k2 else op.simulate in
  let measured_ns = median (List.map (fun op -> 1e9 *. simulate op /. sent) own) in
  let layers = sim_layers ~args sim ~base ~traced ~counts ~measured_ns in
  let totals ops = median (List.map (fun op -> op.total) ops) in
  let snaps = List.concat_map (fun op -> op.snaps) base in
  let bytes f = match base with op :: _ when op.snap_bytes <> [] -> float (f op.snap_bytes) | _ -> 0. in
  let last l = List.nth l (List.length l - 1) in
  let snapshot_s = if snaps = [] then 0. else median snaps in
  let restore_s = median (List.map (fun op -> op.restore) base) in
  let extra =
    [
      m "wall_per_sim_s" "s/sim-s" (median (List.map (fun op -> simulate op /. horizon_s) own));
      m "ns_per_msg" "ns" measured_ns;
      m "checkpoint_s" "s" snapshot_s;
      m "checkpoint_mb" "MB" (bytes last /. 1e6);
      m "restore_s" "s" restore_s;
      m "failed_ratio" "ratio" (float failed /. float (List.length ops));
      m "harness.snapshot_s" "s" snapshot_s;
      m "harness.snapshot_bytes_first" "bytes" (bytes List.hd);
      m "harness.snapshot_bytes_last" "bytes" (bytes last);
      m "harness.restore_s" "s" restore_s;
      m "harness.intra_speedup" "x"
        (if sharded = [] then 0. else totals base /. totals sharded);
      m "harness.intra_cpu_per_wall" "ratio"
        (if sharded = [] then 0.
         else median (List.map (fun op -> op.cpu /. op.total) sharded));
    ]
  in
  (v.ok && failed = 0, List.length ops, failed, extra @ layers)

let traced_sweep args =
  let v, wall_1, _ = verify_sweep ~args in
  let since = Spans.mark () in
  let md5, wall_2, _ = run_sweep ~smoke:args.smoke ~jobs:2 in
  let failed = if String.equal md5 v.reference then 0 else 1 in
  let tables =
    List.map
      (fun (id, _, _) ->
        let d = Spans.durations ~since ("experiments." ^ id) in
        m ("experiments." ^ id ^ "_s") "s" (List.fold_left ( +. ) 0. d))
      (sweep_tables ~smoke:false)
  in
  (* The simulation layers are measured on the sweep's typical run. *)
  let sim = sweep_shape in
  let base, traced, counts = subject_runs sim ~seed:args.seed ~n:2 ~checkpoints:false in
  let sent = float traced.result.messages_sent in
  let measured_ns = median (List.map (fun op -> 1e9 *. op.simulate /. sent) base) in
  let layers = sim_layers ~args sim ~base ~traced ~counts ~measured_ns in
  let extra =
    [
      m "wall_per_sim_s" "s/sim-s"
        (median (List.map (fun op -> op.simulate /. (float sim.horizon /. 1e6)) base));
      m "ns_per_msg" "ns" measured_ns;
      m "failed_ratio" "ratio" (float failed);
      m "parallel.speedup" "x" (wall_1 /. wall_2);
    ]
  in
  (v.ok && failed = 0, 1, failed, extra @ tables @ layers)

(* Order and complete the traced metrics: every per-layer metric appears,
   0 where the workload does no such work. *)
let per_layer metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> String.equal x.name name) metrics with
      | Some x -> x
      | None -> m name unit_ 0.)
    per_layer_units

let () =
  let args = parse_args () in
  match workload_of ~smoke:args.smoke args.workload with
  | None ->
      prerr_endline
        ("unknown workload " ^ args.workload
       ^ " (gossip-n128, gossip-n128-k2, relay-fattree-faults, sweep-quick)");
      exit 2
  | Some w ->
      mkdir_p out_dir;
      Spans.recording := args.trace;
      let correct, attempted, failed, metrics =
        match (w, args.trace) with
        | Sim { sim; intra }, false -> timed_sim args sim ~intra
        | Sweep, false -> timed_sweep args
        | Sim { sim; intra }, true -> traced_sim args sim ~intra
        | Sweep, true -> traced_sweep args
      in
      let metrics = if args.trace then per_layer metrics else metrics in
      if args.trace then
        Spans.write
          (Filename.concat out_dir
             (Printf.sprintf "spans-%s-seed%d.jsonl" args.workload args.seed));
      emit ~correct ~attempted ~failed metrics
