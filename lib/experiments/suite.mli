(** The experiment suite of DESIGN.md §6 / EXPERIMENTS.md.

    Each experiment is one function in {!all} that runs it and prints its
    table(s) to stdout. [quick] shrinks parameters (fewer points, shorter horizons) for smoke
    runs, CI's determinism gate and the repository benchmark; the full
    versions are what EXPERIMENTS.md records.

    [pool] fans the independent simulation runs behind each table out
    across domains ({!Parallel.Pool}), longest first; rows are put back in
    declaration order and printed only after the join, so the printed
    tables are byte-identical for every pool size — all experiments remain
    deterministic: same build, same output. Each row's wall clock goes to
    stderr, in declaration order. Pass
    {!Parallel.Pool.sequential} for the single-domain path.

    [obs] is the session's observability (bin/experiments.exe [--trace] /
    [--metrics] flags): with [no_obs] every run keeps the null sink and the
    tables are byte-identical to the pre-observability output; with
    [metrics = true] each table gains a digest column (the per-run
    {!Obs.Digest} — the determinism oracle; E4, whose cells are single
    runs, prints a second grid of digests instead, and E6 one column per
    stack); with [trace = Some j] every run streams its typed events into
    [j] as JSONL, prefixed by a note naming the run. Every table runs
    through {!Harness.Run}. *)

type obs = {
  trace : Obs.Jsonl.t option;
      (** stream every run's events here; requires a sequential pool *)
  metrics : bool;  (** per-run digest column *)
  checkpoint : (string * Sim.Time.t) option;
      (** [(dir, every)]: advance each run in [every]-sized simulated-time
          slices, persisting a resumable snapshot into [dir] between
          slices and resuming from it on restart. Observationally
          invisible — the tables stay byte-identical. Ignored while
          tracing (a run holding a JSONL sink cannot snapshot). A run
          raises [Invalid_argument] if [every] is not positive. *)
  topology : Net.Topology.kind option;
      (** session-wide network-graph override (bin/experiments.exe
          [--topology]): applied to every run that kept the default
          [Complete] topology; rows that pick their own (E13) are
          untouched. Routed tables differ from the default ones but stay
          deterministic and [--jobs]-invariant. *)
  intra : int;
      (** bin/experiments.exe [--intra-jobs]: conservative-window shards
          inside each run (DESIGN.md §18), orthogonal to the between-runs
          pool. Tables are byte-identical for every value. *)
}

(** No tracing, no digests: the zero-cost default. *)
val no_obs : obs

(** All experiments in order, as [(id, one-line description, run)]:
    ["e1"] … ["e13"]. EXPERIMENTS.md describes each table. *)
val all :
  (string * string * (pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit))
  list
