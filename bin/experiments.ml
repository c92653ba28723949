(* Command-line driver for the experiment suite (EXPERIMENTS.md).

   Usage:
     experiments               run every experiment (full size)
     experiments --quick       run every experiment (reduced size)
     experiments --jobs 4      fan runs out over 4 domains (same output)
     experiments --metrics     append per-run digest columns to the tables
     experiments --trace f.jsonl  stream every run's typed events to f.jsonl
     experiments --checkpoint-dir D --checkpoint-every 5
                               persist resumable per-row snapshots into D
     experiments e2 e4         run selected experiments
     experiments --list        list experiments *)

let list_term =
  Cmdliner.Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let quick_term =
  Cmdliner.Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Run reduced-size versions (shorter horizons, fewer points).")

let jobs_term =
  Cmdliner.Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run simulations on $(docv) domains (default: the recommended \
           domain count of this machine). Tables are byte-identical for \
           every N; $(docv)=1 is the plain sequential path.")

let intra_jobs_term =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "intra-jobs" ] ~docv:"K"
        ~doc:
          "Shard every simulation over $(docv) domains with \
           conservative-window execution (DESIGN.md §18) — parallelism \
           $(i,inside) a run, orthogonal to --jobs' parallelism between \
           runs. Tables are byte-identical for every $(docv); $(docv)=1 \
           is the plain sequential path. Incompatible with --trace (a \
           trace needs the run on one engine). With --checkpoint-dir, a \
           row resumes in the mode its checkpoint was saved in; the tables \
           are identical either way.")

let metrics_term =
  Cmdliner.Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Append a per-run digest column (FNV fold over the run's full \
           event stream) to each Run-backed table. Digests are identical \
           for every --jobs N: the determinism oracle the CI gate diffs.")

let trace_term =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream every run's typed events to $(docv) as JSON lines, each \
           run prefixed by a note naming it. Forces --jobs 1 (the writer is \
           shared across runs).")

let topology_conv =
  let parse s =
    match Net.Topology.kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg "expected complete, ring, grid, rgg, fattree, or wan")
  in
  let print ppf k = Format.pp_print_string ppf (Net.Topology.kind_to_string k) in
  Cmdliner.Arg.conv (parse, print)

let topology_term =
  Cmdliner.Arg.(
    value
    & opt (some topology_conv) None
    & info [ "topology" ] ~docv:"KIND"
        ~doc:
          "Run every simulation over this network graph instead of the \
           paper's complete one: $(b,ring), $(b,grid), $(b,rgg), \
           $(b,fattree), $(b,wan) (or $(b,complete), the default). Rows \
           that pick their own topology (E13) keep it. Routed runs produce \
           different (still deterministic) tables than the default.")

let checkpoint_dir_term =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Persist a resumable snapshot of every in-flight run into $(docv) \
           (created if missing), refreshed every --checkpoint-every \
           simulated seconds and deleted when the row completes. A rerun of \
           the same command resumes each interrupted row from its last \
           snapshot; the tables stay byte-identical to an uninterrupted \
           run. Snapshots only load in the binary that wrote them.")

(* The interval is kept in whole milliseconds. A value below 1 ms, or
   NaN, would give slices that never move the clock (the sweep would
   rewrite one checkpoint forever), and an infinite value or one beyond
   the clock's range has no millisecond count, so all are refused here. *)
let checkpoint_every_conv =
  let parse s =
    match Option.map (fun sec -> sec *. 1000.) (float_of_string_opt s) with
    | Some ms when ms >= 1. && ms < float_of_int (max_int / 1000) ->
        Ok (Sim.Time.of_ms (int_of_float ms))
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid value '%s', expected simulated seconds of at least \
                0.001"
               s))
  in
  let print ppf t = Format.fprintf ppf "%g" (Sim.Time.to_ms_float t /. 1000.) in
  Cmdliner.Arg.conv (parse, print)

let checkpoint_every_term =
  Cmdliner.Arg.(
    value
    & opt checkpoint_every_conv (Sim.Time.of_sec 5)
    & info [ "checkpoint-every" ] ~docv:"SIM_S"
        ~doc:
          "Simulated seconds between checkpoint snapshots (default 5, at \
           least 0.001; kept in whole milliseconds). Only meaningful with \
           --checkpoint-dir.")

let ids_term =
  Cmdliner.Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:"Experiment ids to run (e1..e13). Default: all.")

(* Make sure the checkpoint directory exists, creating it if missing. A
   regular file, or a path whose parent is missing, is refused here,
   before any run starts, rather than at the first checkpoint write. *)
let ensure_dir dir =
  match Sys.is_directory dir with
  | true -> Ok ()
  | false -> Error (dir ^ " is not a directory")
  | exception Sys_error _ -> (
      try Ok (Sys.mkdir dir 0o755) with Sys_error msg -> Error msg)

let run list quick jobs intra_jobs metrics trace topology checkpoint_dir
    checkpoint_every ids =
  let unknown =
    List.filter
      (fun id ->
        not (List.exists (fun (k, _, _) -> k = id) Experiments.Suite.all))
      ids
  in
  if list then begin
    List.iter
      (fun (id, doc, _) -> Printf.printf "%-4s %s\n" id doc)
      Experiments.Suite.all;
    `Ok ()
  end
  else if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else if intra_jobs < 1 then `Error (false, "--intra-jobs must be >= 1")
  else if intra_jobs > 1 && Option.is_some trace then
    `Error (false, "--intra-jobs needs the run on one engine; drop --trace")
  else if Option.is_some trace && Option.is_some checkpoint_dir then
    `Error (false, "--trace disables --checkpoint-dir (pick one)")
  else if unknown <> [] then
    `Error
      ( false,
        Printf.sprintf "unknown experiment id(s) %s; try --list"
          (String.concat ", " unknown) )
  else
    match Option.map ensure_dir checkpoint_dir with
    | Some (Error msg) -> `Error (false, "--checkpoint-dir: " ^ msg)
    | None | Some (Ok ()) -> (
        match Option.map open_out trace with
        | exception Sys_error msg -> `Error (false, "--trace: " ^ msg)
        | oc ->
            let selected =
              match ids with
              | [] -> Experiments.Suite.all
              | ids ->
                  List.filter
                    (fun (id, _, _) -> List.mem id ids)
                    Experiments.Suite.all
            in
            let jsonl = Option.map Obs.Jsonl.create oc in
            let checkpoint =
              Option.map (fun dir -> (dir, checkpoint_every)) checkpoint_dir
            in
            let obs =
              {
                Experiments.Suite.trace = jsonl;
                metrics;
                checkpoint;
                topology;
                intra = intra_jobs;
              }
            in
            (* The JSONL writer is one shared out-channel: events from
               concurrent runs would interleave, so tracing pins the run
               farm to a single domain. *)
            let jobs = if Option.is_some jsonl then 1 else jobs in
            Parallel.Pool.with_pool ~jobs (fun pool ->
                List.iter (fun (_, _, f) -> f ~pool ~quick ~obs) selected);
            Option.iter Obs.Jsonl.close jsonl;
            `Ok ())

let cmd =
  let doc =
    "Reproduce the evaluation of 'From an intermittent rotating star to a \
     leader' (Fernandez & Raynal)."
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "experiments" ~doc)
    Cmdliner.Term.(
      ret
        (const run $ list_term $ quick_term $ jobs_term $ intra_jobs_term
       $ metrics_term $ trace_term $ topology_term
       $ checkpoint_dir_term $ checkpoint_every_term $ ids_term))

let () = exit (Cmdliner.Cmd.eval cmd)
