#!/usr/bin/env python3
"""A/B the repository benchmark between a base commit and this checkout.

Usage, from the root of the repository:

    python3 tools/perf_ab.py [--base REF] [--pairs N] [--seed S ...]
                             [--trace 0|1] [--metric NAME ...] [--json PATH]
                             [WORKLOAD ...]

The base ref (default: `git merge-base HEAD main`) is exported with
`git archive` into a temporary directory, which is removed on exit; the
other side is the current checkout, uncommitted edits included. For every
workload (default: all of BENCHMARK.json's) and seed (default 7) it runs N
pairs (default 10) of

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace T

(the seconds are BENCHMARK.json's `run_seconds`) one in each tree, alternating which side runs first (run.py builds each
tree from its own sources; timing starts after that). It needs no network.

For each workload, seed and metric (default: BENCHMARK.json's end-to-end
metrics under --trace 0, its per-layer metrics under --trace 1) it prints
both sides' median and quartiles, the change's wins out of N (ties count
for neither), the median gap in the better direction and whether it
exceeds the base's interquartile range; then every run's `correct` and
`failed`. --json writes every run's result object.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(ref, dest):
    """Write the tree of [ref] into [dest] (no .git, no worktree entry)."""
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {ref} failed")


def run_bench(tree, workload, seed, seconds, trace):
    """One run.py call; returns its JSON result (None if it printed none)."""
    cmd = [
        sys.executable,
        os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        print(f"perf_ab: no result from {tree} ({workload}, seed {seed}, "
              f"exit {proc.returncode})", file=sys.stderr)
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def value(result, name):
    if result is None or name not in result.get("metrics", {}):
        return None
    return result["metrics"][name]["value"]


def report(workload, seed, pairs, metrics):
    print(f"\n== {workload}, seed {seed}, {len(pairs)} pairs")
    print(f"{'metric':34} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'gap':>10} "
          f"{'base IQR':>10}  gap>IQR")
    for name, better in metrics:
        both = [(value(b, name), value(c, name)) for b, c in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        if not both:
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        sign = 1 if better == "lower" else -1
        wins = sum(1 for b, c in both if sign * (b - c) > 0)
        gap = sign * (bmed - cmed)
        iqr = bq3 - bq1
        print(f"{name:34} {bmed:>12.4g} [{bq1:.4g}, {bq3:.4g}]".ljust(69)
              + f" {cmed:>12.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(35)
              + f" {wins:>2}/{len(both):<3} {gap:>10.4g} {iqr:>10.4g}  "
              + ("yes" if gap > iqr else "no"))
    print("runs (correct, failed) base | change:")
    for i, (b, c) in enumerate(pairs):
        def cf(r):
            return "missing" if r is None else f"{r['correct']}, {r['failed']}"
        print(f"  pair {i + 1:2}: {cf(b)} | {cf(c)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--base", help="base ref (default: merge-base HEAD main)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metric", action="append",
                    help="metric to report (repeatable)")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()
    seeds = args.seed or [7]
    kinds = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = [(m["name"], m["better"]) for m in kinds
               if not args.metric or m["name"] in args.metric]
    base_ref = args.base or git("merge-base", "HEAD", "main")
    base_sha = git("rev-parse", "--short", base_ref)

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        export(base_ref, tmp)
        print(f"base {base_ref} ({base_sha}) exported to {tmp}; "
              f"change: {ROOT} (working tree)", flush=True)
        raw = []
        for workload in args.workloads:
            for seed in seeds:
                pairs = []
                for i in range(args.pairs):
                    order = [(0, tmp), (1, ROOT)]
                    if i % 2 == 1:
                        order.reverse()
                    got = [None, None]
                    for side, tree in order:
                        got[side] = run_bench(tree, workload, seed,
                                              spec["run_seconds"], args.trace)
                        raw.append({"workload": workload, "seed": seed,
                                    "pair": i, "side": ("base", "change")[side],
                                    "first": order[0][0] == side,
                                    "result": got[side]})
                    pairs.append((got[0], got[1]))
                    print(f"  {workload} seed {seed} pair {i + 1}/{args.pairs}"
                          " done", file=sys.stderr, flush=True)
                report(workload, seed, pairs, metrics)
                sys.stdout.flush()
                if args.json:
                    with open(args.json, "w") as f:
                        json.dump({"base": base_sha, "runs": raw}, f, indent=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    # Turn a kill into an exit so the export is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(130)
