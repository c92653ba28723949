(** The experiment suite of DESIGN.md §6 / EXPERIMENTS.md.

    Each function runs one experiment and prints its table(s) to stdout.
    [quick] shrinks parameters (fewer points, shorter horizons) for smoke
    runs, CI's determinism gate and the repository benchmark; the full
    versions are what EXPERIMENTS.md records.

    [pool] fans the independent simulation runs behind each table out
    across domains ({!Parallel.Pool}); rows are assembled in submission
    order and printed only after the join, so the printed tables are
    byte-identical for every pool size — all experiments remain
    deterministic: same build, same output. Pass
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

(** Farm mode (DESIGN.md §16). Every table row is a costed cell with a
    globally increasing id in declaration order; the id is the cell's
    identity across shard/merge. [Local] executes everything; [Shard]
    executes only the cells with [id mod count = index - 1] and records
    their rows (the tables themselves render into whatever channel
    {!Harness.Table.set_out} points at — bin/experiments.exe nulls it);
    [Merge] executes nothing and pulls every row from the loaded shard
    files by id, replaying the rendering byte-identically. *)
type farm_mode =
  | Local
  | Shard of {
      index : int;  (** 1-based *)
      count : int;
      recorded : (int * string list) list ref;
    }
  | Merge of (int, string list) Hashtbl.t

type farm = { mode : farm_mode; mutable next_cell : int }

val local_farm : unit -> farm

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
  farm : farm;
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

(** No tracing, no digests, local farm: the zero-cost default. *)
val no_obs : obs

(** The shard file written by [--shard i/k --shard-out FILE] and read
    back by bin/merge_tables.exe. *)
module Shard : sig
  type file = {
    shard_magic : string;
    index : int;
    count : int;
    ids : string list;  (** selected experiment ids, {!all} order *)
    quick : bool;
    metrics : bool;
    topology : string;  (** [--topology] override kind name; ["-"] = none *)
    cells : (int * string list) list;
  }

  val save :
    path:string ->
    index:int ->
    count:int ->
    ids:string list ->
    quick:bool ->
    metrics:bool ->
    topology:string ->
    cells:(int * string list) list ->
    unit

  (** Raises [Failure] if [path] is not a shard file. *)
  val load : string -> file
end

(** E1 — Theorem 1: stabilization of Figures 1-3 under the rotating t-star
    (A'), across system sizes, with crashes. *)
val e1 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E2 — Theorem 2: the intermittent star (A) with gap bound D: Figure 1
    fails, Figures 2-3 elect the center; latency vs D. *)
val e2 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E3 — Theorem 4 / Lemma 8: bounded variables. Figure 2 vs Figure 3 on
    suspicion levels, timeout values and the lattice invariant. *)
val e3 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E4 — §3 containment: every algorithm under every assumption regime,
    each cell one {!Harness.Run.run} ([`Gossip] configs for the paper's
    figures and the closure-rule detectors, [`Heartbeat] for the per-link
    baseline). *)
val e4 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E5 — §1.3/§8 cost: message counts, wire bytes, state growth vs n. *)
val e5 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E6 — Theorem 5: consensus and atomic broadcast over the elected
    leader, as {!Harness.Run.Spec.layer}s: one cell per (D, stack). *)
val e6 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E7 — §7: growing timeliness bounds; Figure 3 vs its A_{f,g} variant. *)
val e7 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** E8 — §1.1 good/bad periods: crash the elected center (failover star),
    measure re-election latency. *)
val e8 : pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit

(** All experiments in order. *)
val all :
  (string * string * (pool:Parallel.Pool.t -> quick:bool -> obs:obs -> unit))
  list
