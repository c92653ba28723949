#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable is built with dune from the checkout's own
sources; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the build's on failure, else the
executable's. Spans and captured sweep output go to .bench_build/perfbench.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: neither dune nor opam is on PATH")


def main():
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: building the benchmark failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    run = subprocess.run([EXE, *sys.argv[1:]], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
