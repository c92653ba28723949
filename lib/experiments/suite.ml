module Scenario = Scenarios.Scenario
module Run = Harness.Run
module Table = Harness.Table

let sec = Sim.Time.of_sec
let ms = Sim.Time.of_ms

let scenario ~n ~t ?(tweak = Fun.id) regime =
  let params = tweak (Scenario.default_params ~n ~t ~beta:(ms 10)) in
  Scenario.create params regime ~seed:42L

let config ~n ~t variant = Omega.Config.default ~n ~t variant

(* Fault experiments (e9/e10) run with [initial_timeout = beta] so receiving
   rounds track sending rounds. Under the default config the receive side
   lags the tags by an ever-growing buffer, so a fault's effect on elections
   surfaces seconds after the wall-clock event and stretched by the skew —
   and, for the adversary, victim delays that grow with the round tag
   eventually land *before* the laggard receivers close those rounds,
   quietly disarming the victimization late in a run (DESIGN.md §12). *)
let fault_config ~n ~t variant =
  {
    (config ~n ~t variant) with
    Omega.Config.initial_timeout = Sim.Time.of_ms 10;
  }

(* Env.make's default params equal [Scenario.default_params ~n ~t ~beta]
   derived from the config, i.e. exactly what the [scenario] helper builds
   — scenario seed 42L is Env's default too. *)
let env ~n ~t ?scenario_seed variant regime =
  Scenarios.Env.make ?scenario_seed (config ~n ~t variant) regime

let violations result =
  match result.Run.checker with
  | Some report -> List.length report.Scenarios.Checker.violations
  | None -> 0

let leader_cell result =
  match result.Run.final_leader with
  | Some l -> string_of_int l
  | None -> "-"

let stab_cell result = Table.ms (Run.stabilization_ms result)

(* The farm (DESIGN.md §16): every table row (or cell) is a [cell] — a
   label, a cost estimate, and a thunk owning its whole simulation stack. *)
type cell = { label : string; cost : float; exec : unit -> string list }

(* Session-wide observability, set by bin/experiments.exe flags. With
   [no_obs] every run takes the zero-cost null-sink path and the tables are
   byte-identical to what they print without this layer. *)
type obs = {
  trace : Obs.Jsonl.t option;
  metrics : bool;
  checkpoint : (string * Sim.Time.t) option;
  topology : Net.Topology.kind option;
      (* session-wide graph override (--topology): applied to every run
         that did not pick a topology itself (E13's rows keep theirs) *)
  intra : int;
      (* --intra-jobs: conservative-window shards inside each run
         (DESIGN.md §18); the tables are byte-identical for every value *)
}

let no_obs =
  {
    trace = None;
    metrics = false;
    checkpoint = None;
    topology = None;
    intra = 1;
  }

(* ------------------------------------------------- on-disk checkpoints *)

(* One row's resumable state: a versioned header naming the row plus the
   run snapshot (DESIGN.md §16). The header is validated on resume — a
   mismatching label or seed means the file belongs to some other sweep
   and the row restarts from scratch; so does any unreadable or
   stale-binary file ([Marshal.Closures] snapshots only load in the
   binary that wrote them). A checkpoint is never worth failing a run
   over. The snapshot carries its run's shards, so a row resumes in the
   mode it was saved in, whatever the rerun's [intra]; the tables are
   identical either way. *)
type ckpt_file = {
  ck_version : int;
  ck_label : string;
  ck_seed : int64;
  ck_bytes : Bytes.t;
}

let ckpt_version = 1

let ckpt_sanitize label =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c | _ -> '_')
    label

let ckpt_read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> (Marshal.from_channel ic : ckpt_file))

let checkpointed_run ~dir ~every ~label ~spec ~env ~seed =
  (* A slice that does not move the clock would rewrite the same
     checkpoint forever. *)
  if Sim.Time.(every <= zero) then
    invalid_arg "Suite: the checkpoint interval must be positive";
  let path = Filename.concat dir (ckpt_sanitize label ^ ".ckpt") in
  let fresh () = Run.start ~spec ~env ~seed () in
  let live =
    if not (Sys.file_exists path) then fresh ()
    else
      match ckpt_read path with
      | { ck_version = v; ck_label; ck_seed; ck_bytes }
        when v = ckpt_version && ck_label = label && ck_seed = seed -> (
          try Run.restore ck_bytes
          with _ ->
            Printf.eprintf "checkpoint %s: snapshot from another binary, restarting row\n%!" path;
            fresh ())
      | _ ->
          Printf.eprintf "checkpoint %s: header mismatch, restarting row\n%!" path;
          fresh ()
      | exception _ ->
          Printf.eprintf "checkpoint %s: unreadable, restarting row\n%!" path;
          fresh ()
  in
  let write () =
    (* Atomic: a kill mid-write must leave either the previous checkpoint
       or the new one, never a torn file. *)
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Marshal.to_channel oc
      { ck_version = ckpt_version; ck_label = label; ck_seed = seed;
        ck_bytes = Run.snapshot live }
      [];
    close_out oc;
    Sys.rename tmp path
  in
  let rec slices () =
    let now = Run.now live and horizon = Run.horizon live in
    if Sim.Time.(now < horizon) then begin
      (* Saturating, so a huge interval cannot wrap below [now]. *)
      let until =
        if Sim.Time.(every >= sub horizon now) then horizon
        else Sim.Time.add now every
      in
      Run.advance live ~until;
      if Sim.Time.(Run.now live < Run.horizon live) then write ();
      slices ()
    end
  in
  slices ();
  let result = Run.finish live in
  if Sys.file_exists path then Sys.remove path;
  result

(* Run.run with the session's observability attached: [metrics] turns
   the digest on (the table grows a digest column), [trace] prepends a
   note naming the run so the JSONL stream is self-describing. Tracing
   requires a sequential pool — the writer is shared across runs — which
   bin/experiments.exe enforces by forcing [--jobs 1]. [checkpoint]
   advances the run in simulated-time slices, persisting a resumable
   snapshot between slices (slicing is observationally invisible, so the
   result is bit-identical to the uninterrupted run); tracing disables it
   (a run holding an out-channel sink cannot snapshot). *)
let obs_run ~obs ~label ?(spec = Run.Spec.default) ~env ~seed () =
  (match obs.trace with Some j -> Obs.Jsonl.note j label | None -> ());
  let spec =
    {
      spec with
      Run.Spec.digest = obs.metrics;
      intra_domains = obs.intra;
    }
  in
  let spec =
    match obs.topology with
    | Some k when spec.Run.Spec.topology = Net.Topology.Complete ->
        Run.Spec.with_topology k spec
    | _ -> spec
  in
  let spec =
    match obs.trace with
    | Some j -> Run.Spec.with_sink (Obs.Jsonl.sink j) spec
    | None -> spec
  in
  match obs.checkpoint with
  | Some (dir, every) when Option.is_none obs.trace ->
      checkpointed_run ~dir ~every ~label ~spec ~env ~seed
  | _ -> Run.run ~spec ~env ~seed ()

let obs_header obs header =
  if obs.metrics then header @ [ "digest" ] else header

let obs_cells obs result cells =
  if obs.metrics then
    cells
    @ [
        (match result.Run.digest with
        | Some d -> Obs.Digest.to_hex d
        | None -> "-");
      ]
  else cells

(* Cost model feeding the LPT schedule: simulated work scales with the
   horizon times the per-second traffic — Θ(n²) messages for the gossip
   family, ~3n for the relay tier — doubled when the assumption checker
   rides along (it processes every event again). Only the ordering
   matters, not the unit. *)
let cost_of ?(algo = `Gossip) ?(check = true) ~n horizon =
  let traffic =
    match algo with
    | `Gossip -> float_of_int (n * n)
    | `Relay -> float_of_int (3 * n)
  in
  Sim.Time.to_ms_float horizon /. 1000.
  *. traffic
  *. (if check then 2. else 1.)

(* Evaluate the cells on the pool. Execution order is longest-processing-
   time-first (by the cost estimate): the pool's workers pull tasks in
   submission order, so submitting the expensive rows first stops a
   40-second E7 row from becoming the tail of the whole sweep. Results
   are mapped back to declaration order before anything renders, so
   stdout (hence the byte-identity of the tables) is independent of both
   the pool size and the schedule. Per-cell wall clock goes to stderr, in
   declaration order — machine time is nondeterministic. *)
let on pool cells =
  let cells = Array.of_list cells in
  let order = Array.init (Array.length cells) Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare cells.(b).cost cells.(a).cost with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let timed =
    Parallel.Pool.run pool
      (Array.map
         (fun i () ->
           let t0 = Unix.gettimeofday () in
           let rows = cells.(i).exec () in
           (i, rows, Unix.gettimeofday () -. t0))
         order)
  in
  let results = Array.make (Array.length cells) ([], 0.) in
  Array.iter (fun (i, rows, w) -> results.(i) <- (rows, w)) timed;
  Array.iteri
    (fun i (_, w) -> prerr_endline (Table.wall cells.(i).label w))
    results;
  Array.to_list (Array.map fst results)

(* ------------------------------------------------------------------ E1 *)

let e1 ~pool ~quick ~obs =
  let ns = if quick then [ 4; 8 ] else [ 4; 8; 16; 32 ] in
  let variants =
    [ Omega.Config.Fig1; Omega.Config.Fig2; Omega.Config.Fig3 ]
  in
  let rows =
    on pool
    @@ List.concat_map
         (fun n ->
           let t = (n - 1) / 2 in
           let center = n - 2 in
           (* The adversary victimizes the n-1 non-center processes in
              rotation; a full cycle (hence convergence) scales with n. *)
           let horizon = if quick then sec 12 else sec (30 + (4 * n)) in
           let crashes =
             List.init (max 1 (t / 2)) (fun i -> (i, sec (3 * (i + 1))))
           in
           List.map
             (fun variant ->
               let label =
                 Printf.sprintf "e1 n=%d %s" n
                   (Omega.Config.variant_name variant)
               in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes crashes)
                         ~env:
                           (env ~n ~t variant
                              (Scenario.Rotating_star { center }))
                         ~seed:7L ()
                     in
                     obs_cells obs result
                       [
                         Table.intc n;
                         Table.intc t;
                         Omega.Config.variant_name variant;
                         stab_cell result;
                         leader_cell result;
                         Table.yesno (result.Run.final_leader = Some center);
                         Table.intc result.Run.messages_sent;
                         Table.intc (violations result);
                       ]);
               })
             variants)
         ns
  in
  Table.print
    ~title:
      "E1: stabilization under the rotating t-star (A'), crashes of t/2 \
       processes [Theorem 1]"
    ~header:
      (obs_header obs
         [ "n"; "t"; "algo"; "stabilized"; "leader"; "=center"; "msgs"; "viol" ])
    rows

(* ------------------------------------------------------------------ E2 *)

let e2 ~pool ~quick ~obs =
  let n = 8 and t = 3 and center = 6 in
  let ds = if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  let crashes = [ (0, sec 5) ] in
  let rows =
    on pool
    @@ List.concat_map
         (fun d ->
           List.map
             (fun variant ->
               let horizon =
                 match variant with
                 | Omega.Config.Fig3 ->
                     if quick then ms (20_000 + (d * d * 250))
                     else ms (30_000 + (d * d * 800))
                 | _ -> if quick then sec 20 else sec 60
               in
               let label =
                 Printf.sprintf "e2 D=%d %s" d
                   (Omega.Config.variant_name variant)
               in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes crashes)
                         ~env:
                           (env ~n ~t variant
                              (Scenario.Intermittent_star { center; d }))
                         ~seed:7L ()
                     in
                     obs_cells obs result
                       [
                         Table.intc d;
                         Omega.Config.variant_name variant;
                         Format.asprintf "%a" Sim.Time.pp horizon;
                         stab_cell result;
                         leader_cell result;
                         Table.yesno (result.Run.final_leader = Some center);
                         Table.intc result.Run.max_susp_level;
                         Table.intc (violations result);
                       ]);
               })
             [ Omega.Config.Fig1; Omega.Config.Fig2; Omega.Config.Fig3 ])
         ds
  in
  Table.print
    ~title:
      "E2: intermittent rotating t-star with gap bound D (n=8, t=3, crash \
       p0@5s) [Theorem 2: fig1 needs A', fig2/fig3 elect the center]"
    ~header:
      (obs_header obs
         [
           "D"; "algo"; "horizon"; "stabilized"; "leader"; "=center";
           "max_susp"; "viol";
         ])
    rows

(* ------------------------------------------------------------------ E3 *)

let e3 ~pool ~quick ~obs =
  let n = 8 and t = 3 and center = 6 in
  let horizon = if quick then sec 20 else sec 90 in
  let crashes = [ (0, sec 5) ] in
  let cases =
    [
      (Omega.Config.Fig2, Scenario.Intermittent_star { center; d = 8 });
      (Omega.Config.Fig3, Scenario.Intermittent_star { center; d = 8 });
      (Omega.Config.Fig2, Scenario.Chaos);
      (Omega.Config.Fig3, Scenario.Chaos);
    ]
  in
  let rows =
    on pool
    @@ List.map
         (fun (variant, regime) ->
           let label =
             Printf.sprintf "e3 %s %s"
               (Omega.Config.variant_name variant)
               (Scenario.regime_name regime)
           in
           {
             label;
             cost = cost_of ~n horizon;
             exec =
               (fun () ->
                 let result =
                   obs_run ~obs ~label
                     ~spec:
                       Run.Spec.(
                         default |> with_horizon horizon
                         |> with_crashes crashes)
                     ~env:(env ~n ~t variant regime) ~seed:7L ()
                 in
                 obs_cells obs result
                   [
                     Omega.Config.variant_name variant;
                     Scenario.regime_name regime;
                     Table.intc result.Run.max_susp_level;
                     Format.asprintf "%a" Sim.Time.pp result.Run.max_timeout;
                     Table.intc result.Run.lattice_violations;
                     Table.intc result.Run.max_round_state;
                     stab_cell result;
                   ]);
           })
         cases
  in
  Table.print
    ~title:
      "E3: variable boundedness, crash p0@5s (n=8, t=3) [Theorem 4: fig3 \
       bounds susp levels and timeouts; Lemma 8: max-min<=1 never violated]"
    ~header:
      (obs_header obs
         [
           "algo"; "regime"; "max_susp"; "max_timeout"; "lattice_viol";
           "round_state"; "stabilized";
         ])
    rows

(* ------------------------------------------------------------------ E4 *)

let e4 ~pool ~quick ~obs =
  let n = 8 and t = 3 and center = 6 in
  let horizon = if quick then sec 12 else sec 45 in
  let crashes = [ (0, sec 10) ] in
  let regimes =
    [
      Scenario.Full_timely;
      Scenario.T_source { center };
      Scenario.Moving_source { center };
      Scenario.Message_pattern { center };
      Scenario.Combined { center };
      Scenario.Rotating_star { center };
      Scenario.Intermittent_star { center; d = 8 };
      Scenario.Chaos;
    ]
  in
  (* The paper's three algorithms, the two single-mechanism detectors its
     assumption decomposes into (DESIGN.md §5: timer-only is the t-source
     family's mechanism, count-only the message pattern's), and the
     classic per-link heartbeat detector, which reads only [n], [beta] and
     [initial_timeout] of the config. *)
  let algos =
    Omega.Config.
      [
        ("fig1", Fig1, Conjunction, `Gossip);
        ("fig2", Fig2, Conjunction, `Gossip);
        ("fig3", Fig3, Conjunction, `Gossip);
        ("timer-only", Fig1, Timer_only, `Gossip);
        ("count-only", Fig1, Count_only, `Gossip);
        ("heartbeat", Fig1, Conjunction, `Heartbeat);
      ]
  in
  (* One thunk per (regime, algo) cell — the finest-grained table, so the
     pool can overlap all |regimes| x |algos| simulations. A cell returns
     its table entry, then its digest under [metrics]. *)
  let cells =
    on pool
    @@ List.concat_map
         (fun regime ->
           List.map
             (fun (name, variant, closure, algo) ->
               let label =
                 Printf.sprintf "e4 %s %s" (Scenario.regime_name regime) name
               in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let env =
                       Scenarios.Env.make
                         { (config ~n ~t variant) with Omega.Config.closure }
                         regime
                     in
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes crashes |> with_check false
                             |> with_algo algo)
                         ~env ~seed:7L ()
                     in
                     (* Did the run settle on the center the adversary
                        protects at its end (failover switches)? *)
                     let elected_center =
                       match
                         ( result.Run.final_leader,
                           Scenarios.Env.center_at env max_int )
                       with
                       | Some l, Some c -> l = c
                       | _ -> false
                     in
                     let stab = Run.stabilization_ms result in
                     obs_cells obs result
                       [
                         (if Float.is_nan stab then "-"
                          else
                            Printf.sprintf "%.1fs%s" (stab /. 1000.)
                              (if elected_center then "*" else ""));
                       ]);
               })
             algos)
         regimes
  in
  let width = List.length algos in
  let rec chunk = function
    | [] -> []
    | cells ->
        let row = List.filteri (fun i _ -> i < width) cells in
        let rest = List.filteri (fun i _ -> i >= width) cells in
        row :: chunk rest
  in
  let grid column =
    List.map2
      (fun regime row -> Scenario.regime_name regime :: row)
      regimes
      (chunk (List.map (fun rows -> List.nth rows column) cells))
  in
  let header = "regime" :: List.map (fun (name, _, _, _) -> name) algos in
  Table.print
    ~title:
      "E4: which algorithm stabilizes under which assumption (n=8, t=3, \
       crash p0@10s; cell = stabilization time, * = elected the center, - = \
       anarchy) [paper section 3]"
    ~header (grid 0);
  if obs.metrics then
    Table.print ~title:"E4 digests: event-stream digest of each cell above"
      ~header (grid 1)

(* ------------------------------------------------------------------ E5 *)

let e5 ~pool ~quick ~obs =
  let ns = if quick then [ 4; 8 ] else [ 4; 8; 16; 32 ] in
  let horizon = if quick then sec 10 else sec 20 in
  let rows =
    on pool
    @@ List.concat_map
         (fun n ->
           let t = (n - 1) / 2 in
           let center = n - 2 in
           List.map
             (fun (crash_label, crashes) ->
               let label = Printf.sprintf "e5 n=%d crash=%s" n crash_label in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes crashes
                             |> with_wire_stats true)
                         ~env:
                           (env ~n ~t Omega.Config.Fig3
                              (Scenario.Rotating_star { center }))
                         ~seed:7L ()
                     in
                     let seconds = Sim.Time.to_ms_float horizon /. 1000. in
                     let per_proc_per_sec =
                       float_of_int result.Run.messages_sent
                       /. seconds /. float_of_int n
                     in
                     let alive_avg =
                       (* ALIVE dominates the count: n-1 ALIVEs + n
                          SUSPICIONs per round per process; report measured
                          mean sizes instead. *)
                       float_of_int result.Run.alive_bytes
                       /. float_of_int (max 1 result.Run.messages_sent)
                     in
                     obs_cells obs result
                       [
                         Table.intc n;
                         crash_label;
                         Table.intc result.Run.messages_sent;
                         Printf.sprintf "%.0f" per_proc_per_sec;
                         Table.intc result.Run.alive_bytes;
                         Table.intc result.Run.suspicion_bytes;
                         Printf.sprintf "%.1f" alive_avg;
                         Table.intc result.Run.max_susp_level;
                         Table.intc result.Run.max_round_state;
                       ]);
               })
             [ ("none", []); ("p0@5s", [ (0, sec 5) ]) ])
         ns
  in
  Table.print
    ~title:
      "E5: cost vs system size (fig3, rotating star) [section 1.3/8: all \
       fields but round numbers bounded]"
    ~header:
      (obs_header obs
         [
           "n"; "crash"; "msgs"; "msg/s/proc"; "alive_B"; "susp_B"; "B/msg";
           "max_susp"; "round_state";
         ])
    rows

(* ------------------------------------------------------------------ E6 *)

(* Theorem 5 as two Run layers over Fig3-Ω, one cell per (D, stack).
   Consensus: p0 — everyone's first leader estimate — crashes at 200 ms,
   before any proposal exists, so consensus cannot be decided by a lucky
   pre-crash ballot and must ride the oracle's re-election; p1..p7 propose
   at 500 ms. Broadcast: a command every 100 ms from p1, p2 and p3 in
   turn, and p0 crashes at 1 s. *)
let e6 ~pool ~quick ~obs =
  let n = 8 and t = 3 in
  let ds = if quick then [ 4 ] else [ 4; 16 ] in
  let horizon = if quick then sec 20 else sec 60 in
  let commands = if quick then 10 else 30 in
  let propose_at = ms 500 in
  let correct crashes outcomes =
    List.filteri (fun p _ -> not (List.mem_assoc p crashes))
      (Array.to_list outcomes)
  in
  (* The value every correct process decided, the latency of the last
     decision, and the ballots anyone started. *)
  let consensus crashes outcomes =
    let ballots =
      Array.fold_left
        (fun acc -> function
          | Run.Decision d -> acc + d.ballots | Run.Delivered _ -> acc)
        0 outcomes
    in
    let value, latest =
      Consensus.Single.agreement
        (List.filter_map
           (function
             | Run.Decision { value; at; _ } -> Some (value, at)
             | Run.Delivered _ -> None)
           (correct crashes outcomes))
    in
    [
      Option.fold ~none:"-" ~some:string_of_int value;
      Option.fold ~none:"-"
        ~some:(fun at ->
          Format.asprintf "%a" Sim.Time.pp (Sim.Time.sub at propose_at))
        latest;
      Table.intc ballots;
    ]
  in
  (* How many commands the correct processes delivered, and whether in
     one order. *)
  let broadcast crashes outcomes =
    match
      List.map
        (function Run.Delivered s -> s | Run.Decision _ -> [])
        (correct crashes outcomes)
    with
    | [] -> [ Printf.sprintf "0/%d" commands; Table.yesno true ]
    | first :: rest ->
        [
          Printf.sprintf "%d/%d" (List.length first) commands;
          Table.yesno (List.for_all (( = ) first) rest);
        ]
  in
  let stacks =
    [
      ( "consensus",
        [ (0, ms 200) ],
        Run.Spec.Consensus
          (List.init (n - 1) (fun i -> (i + 1, propose_at, 101 + i))),
        consensus );
      ( "broadcast",
        [ (0, sec 1) ],
        Run.Spec.Broadcast
          (List.init commands (fun c ->
               (1 + (c mod 3), ms (100 * c), 1000 + c))),
        broadcast );
    ]
  in
  let cells =
    on pool
    @@ List.concat_map
         (fun d ->
           let env =
             env ~n ~t Omega.Config.Fig3
               (Scenario.Intermittent_star { center = n - 2; d })
           in
           List.map
             (fun (name, crashes, layer, columns) ->
               let label = Printf.sprintf "e6 D=%d %s" d name in
               {
                 label;
                 cost = cost_of ~check:false ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes crashes |> with_check false
                             |> with_layer layer)
                         ~env ~seed:11L ()
                     in
                     obs_cells obs result
                       (columns crashes (Option.get result.Run.outcomes)));
               })
             stacks)
         ds
  in
  (* A row is D, both stacks' columns, then both digests under --metrics. *)
  let split cells =
    let k = List.length cells - if obs.metrics then 1 else 0 in
    ( List.filteri (fun i _ -> i < k) cells,
      List.filteri (fun i _ -> i >= k) cells )
  in
  let rec rows ds cells =
    match (ds, cells) with
    | d :: ds, cons :: bcast :: cells ->
        let c, cd = split cons and b, bd = split bcast in
        ((Table.intc d :: c) @ b @ cd @ bd) :: rows ds cells
    | _ -> []
  in
  Table.print
    ~title:
      "E6: consensus + atomic broadcast over fig3-Omega (n=8, t=3, crash \
       p0; intermittent star) [Theorem 5]"
    ~header:
      ([
         "D"; "decision"; "decision latency"; "ballots"; "delivered";
         "same order";
       ]
      @ if obs.metrics then [ "consensus digest"; "broadcast digest" ] else [])
    (rows ds cells)

(* ------------------------------------------------------------------ E7 *)

let e7 ~pool ~quick ~obs =
  let n = 5 and t = 2 and center = 3 and d = 2 in
  (* Quadratic g (see Scenario.g_function): outgrows the linear-rate timeout
     adaptation, so only the g-aware variant can keep waiting long enough.
     Small base timeout and jitter keep the send/receive drift from masking
     the growth; no crashes (with the center dark off-star and one victim,
     round closure has exactly n-t ALIVEs counting the receiver itself). *)
  let g_step = ms 5 in
  let horizon = if quick then sec 90 else sec 150 in
  let regime = Scenario.Growing_star { center; d; g_step } in
  let scen = scenario ~n ~t regime in
  let g = Scenario.g_function scen in
  let tweak c =
    {
      c with
      Omega.Config.initial_timeout = ms 8;
      send_jitter = 0.02;
      timeout_unit = Sim.Time.of_us 50;
    }
  in
  let thunks_a =
    List.map
      (fun (algo_label, variant) ->
        let label = Printf.sprintf "e7a %s" algo_label in
        {
          label;
          cost = cost_of ~n horizon;
          exec =
            (fun () ->
              let result =
                obs_run ~obs ~label
                  ~spec:Run.Spec.(default |> with_horizon horizon)
                  ~env:
                    (Scenarios.Env.make (tweak (config ~n ~t variant)) regime)
                  ~seed:7L ()
              in
              obs_cells obs result
                [
                  algo_label;
                  stab_cell result;
                  leader_cell result;
                  Table.yesno (result.Run.final_leader = Some center);
                  Format.asprintf "%a" Sim.Time.pp result.Run.max_timeout;
                  Table.intc (violations result);
                ]);
        })
      [
        ("fig3 (g unknown)", Omega.Config.Fig3);
        ("fig3_fg (knows g)", Omega.Config.Fig3_fg { f = (fun _ -> 0); g });
      ]
  in
  (* E7b: the f side — gaps between good rounds grow without bound. *)
  let n = 8 and t = 3 and center_b = 6 in
  let regime_b = Scenario.Growing_gaps { center = center_b; d = 4; f_step = 8 } in
  let params = Scenario.default_params ~n ~t ~beta:(ms 10) in
  let scen_b = Scenario.create params regime_b ~seed:42L in
  let f = Scenario.f_function scen_b in
  let horizon_b = if quick then sec 45 else sec 90 in
  let thunks_b =
    List.map
      (fun (algo_label, variant) ->
        let label = Printf.sprintf "e7b %s" algo_label in
        {
          label;
          cost = cost_of ~n horizon_b;
          exec =
            (fun () ->
              let result =
                obs_run ~obs ~label
                  ~spec:
                    Run.Spec.(
                      default |> with_horizon horizon_b
                      |> with_crashes [ (0, sec 5) ])
                  ~env:(env ~n ~t variant regime_b)
                  ~seed:7L ()
              in
              obs_cells obs result
                [
                  algo_label;
                  stab_cell result;
                  leader_cell result;
                  Table.yesno (result.Run.final_leader = Some center_b);
                  Table.intc result.Run.max_susp_level;
                  Table.intc (violations result);
                ]);
        })
      [
        ("fig3 (f unknown)", Omega.Config.Fig3);
        ("fig3_fg (knows f)", Omega.Config.Fig3_fg { f; g = (fun _ -> Sim.Time.zero) });
      ]
  in
  (* Both tables' runs go out in one batch; printing happens after the
     join, in table order. *)
  let split = List.length thunks_a in
  let all_rows = on pool (thunks_a @ thunks_b) in
  let rows = List.filteri (fun i _ -> i < split) all_rows in
  let rows_b = List.filteri (fun i _ -> i >= split) all_rows in
  Table.print
    ~title:
      "E7a: growing timeliness bound delta+g(rn), quadratic g (growing star, \
       n=5, t=2, D=2) [section 7: only the g-aware algorithm elects the \
       center]"
    ~header:
      (obs_header obs
         [ "algo"; "stabilized"; "leader"; "=center"; "max_timeout"; "viol" ])
    rows;
  Table.print
    ~title:
      "E7b: growing gaps between good rounds, f(s) = 4 + 8*(s/256) (n=8, \
       t=3, crash p0@5s) [section 7: only the f-aware algorithm elects the \
       center]"
    ~header:
      (obs_header obs
         [ "algo"; "stabilized"; "leader"; "=center"; "max_susp"; "viol" ])
    rows_b

(* ------------------------------------------------------------------ E8 *)

let e8 ~pool ~quick ~obs =
  let n = 8 and t = 3 in
  let first = 2 and second = 6 in
  let crash_time = if quick then sec 8 else sec 20 in
  let switch = Sim.Time.to_us crash_time / Sim.Time.to_us (ms 10) in
  let horizon = if quick then sec 30 else sec 90 in
  let seeds = if quick then [ 7L ] else [ 7L; 8L; 9L ] in
  let rows =
    on pool
    @@ List.concat_map
         (fun variant ->
           List.map
             (fun seed ->
               let label =
                 Printf.sprintf "e8 %s seed=%Ld"
                   (Omega.Config.variant_name variant)
                   seed
               in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_crashes [ (first, crash_time) ])
                         ~env:
                           (env ~n ~t ~scenario_seed:seed variant
                              (Scenario.Failover { first; second; switch }))
                         ~seed ()
                     in
                     let relect =
                       match result.Run.stabilized_at with
                       | Some at when Sim.Time.(at > crash_time) ->
                           Table.ms
                             (Sim.Time.to_ms_float (Sim.Time.sub at crash_time))
                       | Some _ | None -> "-"
                     in
                     (* Leader agreed just before the crash, from the
                        samples. *)
                     let pre_crash =
                       List.fold_left
                         (fun acc (s : Run.sample) ->
                           if Sim.Time.(s.Run.time < crash_time) then
                             match s.Run.agreed with
                             | Some l -> string_of_int l
                             | None -> acc
                           else acc)
                         "-" result.Run.samples
                     in
                     obs_cells obs result
                       [
                         Omega.Config.variant_name variant;
                         Int64.to_string seed;
                         pre_crash;
                         leader_cell result;
                         stab_cell result;
                         relect;
                         Table.intc (violations result);
                       ]);
               })
             seeds)
         [ Omega.Config.Fig2; Omega.Config.Fig3 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E8: leader crash and re-election (failover star %d->%d, crash \
          p%d@%ds) [section 1.1 good/bad periods]"
         first second first
         (Sim.Time.to_us crash_time / 1_000_000))
    ~header:
      (obs_header obs
         [
           "algo"; "seed"; "pre-crash"; "final"; "stabilized"; "re-elect";
           "viol";
         ])
    rows

(* ------------------------------------------------------------------ E9 *)

let e9 ~pool ~quick ~obs =
  let n = 8 and t = 3 and center = 6 in
  let fault_at = if quick then sec 8 else sec 15 in
  let durations = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let fault_cfg = fault_config ~n ~t Omega.Config.Fig3 in
  (* Horizon leaves a post-heal tail longer than min_stable (horizon/5) plus
     the re-stabilization transient, so a healed run can prove itself (the
     stability judge also wants the final third of the rounds agreed). *)
  let horizon d =
    Sim.Time.add fault_at (sec ((if quick then 20 else 30) + (2 * d)))
  in
  let faults =
    [
      (* Isolating the center severs its ALIVEs both ways: the majority side
         churns leaderless (the rotating adversary victimizes everyone else),
         and after the heal the center must win re-election. *)
      ( "partition center",
        fun d ->
          Fault.Plan.(
            empty
            |> partition ~at:fault_at
                 ~heal_at:(Sim.Time.add fault_at (sec d))
                 [ [ center ] ]) );
      ( "crash+recover center",
        fun d ->
          Fault.Plan.(
            empty
            |> crash center ~at:fault_at
            |> recover center ~at:(Sim.Time.add fault_at (sec d))) );
    ]
  in
  let rows =
    on pool
    @@ List.concat_map
         (fun (fault_label, plan_of) ->
           List.map
             (fun d ->
               let horizon = horizon d in
               let label = Printf.sprintf "e9 %s D=%ds" fault_label d in
               {
                 label;
                 cost = cost_of ~n horizon;
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon horizon
                             |> with_plan (plan_of d))
                         ~env:
                           (Scenarios.Env.make fault_cfg
                              (Scenario.Rotating_star { center }))
                         ~seed:7L ()
                     in
                     obs_cells obs result
                       [
                         fault_label;
                         Printf.sprintf "%ds" d;
                         Format.asprintf "%a" Sim.Time.pp horizon;
                         stab_cell result;
                         leader_cell result;
                         Table.yesno (result.Run.final_leader = Some center);
                         Table.intc result.Run.re_elections;
                         Table.intc result.Run.leadership_epochs;
                         Format.asprintf "%a" Sim.Time.pp
                           result.Run.partition_downtime;
                         Table.intc (violations result);
                       ]);
               })
             durations)
         faults
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E9: partition / crash-recovery of the center for D seconds \
          (fig3, rotating star, n=8, t=3, fault@%ds) [stabilization must \
          recover after the heal]"
         (Sim.Time.to_us fault_at / 1_000_000))
    ~header:
      (obs_header obs
         [
           "fault"; "D"; "horizon"; "stabilized"; "leader"; "=center";
           "re-elect"; "epochs"; "downtime"; "viol";
         ])
    rows

(* ----------------------------------------------------------------- E10 *)

let e10 ~pool ~quick ~obs =
  let n = 8 and t = 3 and center = 6 in
  let horizon = if quick then sec 20 else sec 60 in
  let adaptive_plan = Fault.Plan.(empty |> adaptive ~from:(sec 2)) in
  let cases =
    [
      (Scenario.Rotating_star { center }, "static", Fault.Plan.empty);
      (Scenario.Rotating_star { center }, "adaptive", adaptive_plan);
      (Scenario.Chaos, "static", Fault.Plan.empty);
      (Scenario.Chaos, "adaptive", adaptive_plan);
    ]
  in
  let rows =
    on pool
    @@ List.map
         (fun (regime, adversary, plan) ->
           let label =
             Printf.sprintf "e10 %s %s" (Scenario.regime_name regime) adversary
           in
           {
             label;
             cost = cost_of ~n horizon;
             exec =
               (fun () ->
                 let result =
                   obs_run ~obs ~label
                     ~spec:
                       Run.Spec.(
                         default |> with_horizon horizon |> with_plan plan)
                     ~env:
                       (Scenarios.Env.make
                          (fault_config ~n ~t Omega.Config.Fig3)
                          regime)
                     ~seed:7L ()
                 in
                 obs_cells obs result
                   [
                     Scenario.regime_name regime;
                     adversary;
                     stab_cell result;
                     leader_cell result;
                     Table.yesno (result.Run.final_leader = Some center);
                     Table.intc result.Run.adversary_moves;
                     Table.intc result.Run.re_elections;
                     Table.intc result.Run.max_susp_level;
                   ]);
           })
         cases
  in
  Table.print
    ~title:
      "E10: static victim blocks vs leader-chasing adaptive adversary \
       (fig3, n=8, t=3) [the star's protected center survives the chase; \
       under chaos the chase never ends]"
    ~header:
      (obs_header obs
         [
           "regime"; "adversary"; "stabilized"; "leader"; "=center"; "moves";
           "re-elect"; "max_susp";
         ])
    rows

(* ----------------------------------------------------------------- E11 *)

let e11 ~pool ~quick ~obs =
  (* The n >= 256 rows are full-mode only: a quick CI sweep (and the
     determinism gate riding on it) stays at n <= 128, while the full
     tables exercise the cache-conscious tier (DESIGN.md §14). *)
  let ns =
    if quick then [ 8; 16; 32; 64; 128 ]
    else [ 8; 16; 32; 64; 128; 256; 512 ]
  in
  let beta = ms 10 in
  (* Stabilization needs a few full victim rotations (each one n-1 rounds:
     every process must be suspected past the center's transient level), so
     the horizon scales with n instead of admitting defeat at n=128 — up to
     the large tier, where a rotation-scaled horizon would cost hours of
     wall clock: n >= 256 runs a fixed two simulated seconds and measures
     throughput only (stabilization is out of reach by construction there,
     and E1-E10 already establish it discriminates). *)
  let horizon n =
    if n >= 256 then ms 2_000
    else
      let rotation_ms = 10 * (n - 1) in
      ms
        (if quick then max 4_000 (7 * rotation_ms)
         else max 10_000 (10 * rotation_ms))
  in
  (* Fixed stable-suffix requirement: the default horizon/5 would demand an
     ever-longer proof of stability just because large n needs a longer
     horizon to get there. *)
  let min_stable = if quick then sec 1 else sec 2 in
  let regimes =
    [
      ("star", fun center -> Scenario.Rotating_star { center });
      ("moving-star", fun center -> Scenario.Moving_source { center });
    ]
  in
  let results =
    on pool
    @@ List.concat_map
         (fun n ->
           let t = (n - 1) / 2 in
           let center = n - 2 in
           let cfg = fault_config ~n ~t Omega.Config.Fig1 in
           (* The mildest adversary (single-round victim blocks, no growth,
              star from round 2): E11 measures how the simulator and the
              algorithm scale with n, not whether the assumption
              discriminates — E1 does that. The star must start almost
              immediately: each anarchy round inflates the center's
              suspicion level, and erasing one level of deficit costs a
              full victim rotation (n-1 rounds), which at n=128 would push
              stabilization far past any CI-feasible horizon. *)
           let params =
             {
               (Scenario.default_params ~n ~t ~beta) with
               Scenario.rn0 = 2;
               victim_block0 = 1;
               victim_block_step = 0;
             }
           in
           List.map
             (fun (rlabel, regime_of) ->
               let label = Printf.sprintf "e11 n=%d %s" n rlabel in
               {
                 label;
                 cost = cost_of ~n ~check:false (horizon n);
                 exec =
                   (fun () ->
                     let result =
                       obs_run ~obs ~label
                         (* No checker: it costs as much as the simulation
                            at large n, and assumption compliance is
                            E1-E10's job — this tier measures throughput. *)
                         ~spec:
                           Run.Spec.(
                             default |> with_horizon (horizon n)
                             |> with_min_stable min_stable
                             |> with_check false)
                         ~env:
                           (Scenarios.Env.make ~params cfg (regime_of center))
                         ~seed:7L ()
                     in
                     let rounds = max 1 result.Run.min_sending_round in
                     let stab_round =
                       match result.Run.stabilized_at with
                       | Some at ->
                           Table.intc (Sim.Time.to_us at / Sim.Time.to_us beta)
                       | None -> "-"
                     in
                     obs_cells obs result
                       [
                         Table.intc n;
                         Table.intc t;
                         rlabel;
                         stab_cell result;
                         stab_round;
                         leader_cell result;
                         Table.yesno (result.Run.final_leader = Some center);
                         Table.intc result.Run.messages_sent;
                         Table.intc (result.Run.messages_sent / rounds);
                       ]);
               })
             regimes)
         ns
  in
  Table.print
    ~title:
      "E11: scaling in n (fig1, tight config, mild single-round victim \
       rotation; wall-clock per run on stderr; n>=256 full-mode only, \
       fixed 2 s horizon, throughput not stabilization) [DESIGN.md 13-14]"
    ~header:
      (obs_header obs
         [
           "n"; "t"; "regime"; "stabilized"; "stab_round"; "leader";
           "=center"; "msgs"; "msgs/round";
         ])
    results

(* ------------------------------------------------------------------ E12 *)

let e12 ~pool ~quick ~obs =
  (* Message-complexity shootout (DESIGN.md §15): the Figure 3 gossip
     family against the communication-efficient relay variant, same
     adversary, same seeds, same tight config — stabilization and
     packets/round side by side. Gossip sends ~1.5 n^2 messages per round
     (n ALIVEs per beta plus the n/2-ish close-round SUSPICION echoes
     under pressure); the relay variant sends ~2 n (one HEARTBEAT per
     process plus one n-fan-out AGGREGATE), so msgs/rd/n is the headline
     column: roughly linear in n for gossip, roughly constant ~2 for the
     relay tier. *)
  let ns =
    if quick then [ 8; 16 ] else [ 8; 16; 32; 64; 128; 256 ]
  in
  let beta = ms 10 in
  (* The victim block must beat the relay's staleness slack (6 + level) or
     the lean tier would stabilize against any adversary trivially: 8-round
     blocks engage both detectors. One full rotation is 8 (n - 1) rounds;
     stabilization needs one or two (the relay tier freezes the center at
     level 0, the gossip tier must lift every arm past the center's
     transient level). n >= 128 runs a fixed two simulated seconds like
     E11's large tier: throughput only, and the msgs/rd/n separation is
     the point there, not stabilization. *)
  let horizon n =
    if n >= 128 then ms 2_000
    else
      let rotation_ms = 10 * 8 * (n - 1) in
      ms
        (if quick then max 4_000 (3 * rotation_ms)
         else max 10_000 (5 * rotation_ms))
  in
  let min_stable = if quick then sec 1 else sec 2 in
  let regimes =
    [
      ("star", fun center -> Scenario.Rotating_star { center });
      ("moving-star", fun center -> Scenario.Moving_source { center });
    ]
  in
  let algos = [ ("fig3", `Gossip); ("relay", `Relay) ] in
  let results =
    on pool
    @@ List.concat_map
         (fun n ->
           let t = (n - 1) / 2 in
           let center = n - 2 in
           let cfg = fault_config ~n ~t Omega.Config.Fig3 in
           let params =
             {
               (Scenario.default_params ~n ~t ~beta) with
               Scenario.rn0 = 2;
               victim_block0 = 8;
               victim_block_step = 0;
             }
           in
           List.concat_map
             (fun (rlabel, regime_of) ->
               List.map
                 (fun (alabel, algo) ->
                   let label =
                     Printf.sprintf "e12 n=%d %s %s" n rlabel alabel
                   in
                   {
                     label;
                     cost = cost_of ~n ~algo ~check:false (horizon n);
                     exec =
                       (fun () ->
                         let result =
                           obs_run ~obs ~label
                             ~spec:
                               Run.Spec.(
                                 default |> with_horizon (horizon n)
                                 |> with_min_stable min_stable
                                 |> with_check false |> with_algo algo)
                             ~env:
                               (Scenarios.Env.make ~params cfg
                                  (regime_of center))
                             ~seed:7L ()
                         in
                         let rounds = max 1 result.Run.min_sending_round in
                         let per_round = result.Run.messages_sent / rounds in
                         let stab_round =
                           match result.Run.stabilized_at with
                           | Some at ->
                               Table.intc
                                 (Sim.Time.to_us at / Sim.Time.to_us beta)
                           | None -> "-"
                         in
                         obs_cells obs result
                           [
                             Table.intc n;
                             Table.intc t;
                             rlabel;
                             alabel;
                             stab_cell result;
                             stab_round;
                             leader_cell result;
                             Table.yesno
                               (result.Run.final_leader = Some center);
                             Table.intc result.Run.messages_sent;
                             Table.intc per_round;
                             Printf.sprintf "%.1f"
                               (float_of_int per_round /. float_of_int n);
                           ]);
                   })
                 algos)
             regimes)
         ns
  in
  Table.print
    ~title:
      "E12: message complexity, gossip (fig3) vs relay tier (tight config, \
       8-round victim blocks, same seeds; wall-clock per run on stderr; \
       n>=128 fixed 2 s horizon, throughput not stabilization) \
       [DESIGN.md 15]"
    ~header:
      (obs_header obs
         [
           "n"; "t"; "regime"; "algo"; "stabilized"; "stab_round"; "leader";
           "=center"; "msgs"; "msgs/round"; "msgs/rd/n";
         ])
    results

(* ------------------------------------------------------------------ E13 *)

let e13 ~pool ~quick ~obs =
  (* Topology sweep (DESIGN.md §17): the paper's complete-graph model
     generalized to routed graphs with per-edge channel classes, both Ω
     algorithms under the same rotating-star adversary and tight config as
     E12. The headline: election still lands on the star's center on every
     structured graph — the checker's bounds and the adversary's victim
     blocks both stretch with the diameter, but the assumption's promise
     survives multi-hop relaying, a 0.5% fair-lossy floor, and
     eventually-timely links whose pre-GST delays are unconstrained. *)
  let ns = if quick then [ 8 ] else [ 8; 16 ] in
  let beta = ms 10 in
  let topologies =
    [
      ("ring", Net.Topology.Ring);
      ("grid", Net.Topology.Grid);
      ("fattree", Net.Topology.Fat_tree { rack = 4 });
      ("wan", Net.Topology.Wan_of_lans { lan = 4 });
    ]
  in
  let channels =
    [
      ("reliable", Net.Topology.Reliable);
      ("lossy-.5%", Net.Topology.Fair_lossy 0.005);
      ( "ev-timely",
        Net.Topology.Eventually_timely { gst = ms 500; bound = sec 2 } );
    ]
  in
  let algos = [ ("fig3", `Gossip); ("relay", `Relay) ] in
  (* The victim block must beat the relay tier's staleness slack
     (6 + 4 (diam-1) + level, see Omega.Lean) with margin, as E12's 8-round
     blocks beat the complete graph's 6 + level. *)
  let block diam = 10 + (4 * (diam - 1)) in
  (* One victim rotation is [block (n-1)] rounds of beta; the horizon buys
     several (the relay tier moves one accusation per block, so it needs
     a few full rotations before the last arm lifts past the center). *)
  let horizon n diam =
    if quick then sec 8
    else Sim.Time.of_ms (Stdlib.max 20_000 ((5 * block diam * (n - 1) * 10) + 2_000)
    )
  in
  let min_stable = if quick then sec 1 else sec 2 in
  (* The structured kinds draw nothing from the RNG, so a scratch stream
     recovers the exact diameter the run's network will compute. *)
  let diameter_of kind n =
    Net.Topology.diameter
      (Net.Topology.build kind ~n ~rng:(Dstruct.Rng.create 0L))
  in
  (* One row, shared between the stabilization sweep and the scaling
     tier below; [horizon] is the only knob that differs. *)
  let mk_row ~n ~tlabel ~kind ~diam ~clabel ~chan ~alabel ~algo ~horizon =
    let t = (n - 1) / 2 in
    let center = n - 2 in
    let cfg = fault_config ~n ~t Omega.Config.Fig3 in
    (* Same adversary for both algorithms in a row; the block length
       scales with the topology's slack (above). *)
    let params =
      {
        (Scenario.default_params ~n ~t ~beta) with
        Scenario.rn0 = 2;
        victim_block0 = block diam;
        victim_block_step = 0;
      }
    in
    let label = Printf.sprintf "e13 n=%d %s %s %s" n tlabel clabel alabel in
    {
      label;
      (* Every message crosses ~diam links, so routed traffic scales the
         cost estimate. *)
      cost = float_of_int diam *. cost_of ~n ~algo ~check:false horizon;
      exec =
        (fun () ->
          let result =
            obs_run ~obs ~label
              ~spec:
                Run.Spec.(
                  default |> with_horizon horizon
                  |> with_min_stable min_stable
                  |> with_check false |> with_algo algo
                  |> with_topology kind |> with_link_channel chan)
              ~env:
                (Scenarios.Env.make ~params cfg
                   (Scenario.Rotating_star { center }))
              ~seed:7L ()
          in
          let rounds = max 1 result.Run.min_sending_round in
          let per_round = result.Run.messages_sent / rounds in
          let stab_round =
            match result.Run.stabilized_at with
            | Some at ->
                Table.intc (Sim.Time.to_us at / Sim.Time.to_us beta)
            | None -> "-"
          in
          obs_cells obs result
            [
              Table.intc n;
              tlabel;
              Table.intc diam;
              clabel;
              alabel;
              stab_cell result;
              stab_round;
              leader_cell result;
              Table.yesno (result.Run.final_leader = Some center);
              Table.intc result.Run.messages_sent;
              Table.intc per_round;
            ]);
    }
  in
  let sweep_rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun (tlabel, kind) ->
            let diam = diameter_of kind n in
            List.concat_map
              (fun (clabel, chan) ->
                List.map
                  (fun (alabel, algo) ->
                    mk_row ~n ~tlabel ~kind ~diam ~clabel ~chan ~alabel
                      ~algo ~horizon:(horizon n diam))
                  algos)
              channels)
          topologies)
      ns
  in
  (* Routed scaling tier (full mode only; ROADMAP's "routed runs cap at
     n = 16" item): the routed hot path — one pooled flight per hop,
     per-hop oracle draws — under E11-class load. A rotation-scaled
     horizon is unaffordable at this size, so as in E11/E12's large
     tiers the rows run a fixed two simulated seconds and measure
     throughput, not stabilization. Fat-tree keeps its
     diameter at 3 while racks multiply, so per-send hop cost stays
     flat as n grows — which is exactly what makes it the rack-scale
     graph worth scaling. *)
  let scale_rows =
    if quick then []
    else
      List.concat_map
        (fun n ->
          let kind = Net.Topology.Fat_tree { rack = 4 } in
          let diam = diameter_of kind n in
          List.map
            (fun (alabel, algo) ->
              mk_row ~n ~tlabel:"fattree" ~kind ~diam ~clabel:"reliable"
                ~chan:Net.Topology.Reliable ~alabel ~algo
                ~horizon:(ms 2_000))
            algos)
        [ 64; 256 ]
  in
  let results = on pool (sweep_rows @ scale_rows) in
  Table.print
    ~title:
      "E13: topology x channel class x algorithm (routed graphs, tight \
       config, diameter-scaled victim blocks, same seeds as E12; 'msgs' \
       counts sends, each crossing up to 'diam' links; n>=64 fattree \
       full-mode only, fixed 2 s horizon, throughput not stabilization) \
       [DESIGN.md 17]"
    ~header:
      (obs_header obs
         [
           "n"; "topo"; "diam"; "chan"; "algo"; "stabilized"; "stab_round";
           "leader"; "=center"; "msgs"; "msgs/round";
         ])
    results

let all =
  [
    ("e1", "Theorem 1: rotating star stabilization vs n", e1);
    ("e2", "Theorem 2: intermittent star, gap bound D sweep", e2);
    ("e3", "Theorem 4/Lemma 8: bounded variables", e3);
    ("e4", "Section 3: regimes x algorithms matrix", e4);
    ("e5", "Sections 1.3/8: message and state cost vs n", e5);
    ("e6", "Theorem 5: consensus and atomic broadcast", e6);
    ("e7", "Section 7: growing timeliness bounds", e7);
    ("e8", "Section 1.1: crash of the leader, re-election", e8);
    ("e9", "Fault plans: partition and crash-recovery of the center", e9);
    ("e10", "Fault plans: adaptive leader-chasing adversary", e10);
    ("e11", "Scaling in n: large-cluster throughput tier", e11);
    ("e12", "Message complexity: gossip vs communication-efficient relay", e12);
    ("e13", "Topologies: routed graphs x channel classes x algorithms", e13);
  ]
