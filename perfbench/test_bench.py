#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 perfbench/test_bench.py

- every workload, at smoke size, prints every metric BENCHMARK.json names
  for its mode, with that metric's unit, and passes its output checks;
- a perturbed expected output makes every operation fail (failed_ratio 1);
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke(workload, trace, *extra):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_mode(self, trace, names):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[names]}
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                lines, result = smoke(w["name"], trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, unit in expected.items():
                    printed = [l.split() for l in lines[:-1]]
                    self.assertIn(unit, [p[2] for p in printed
                                         if len(p) == 3 and p[0] == name])

    def test_timed_metrics(self):
        self.check_mode(0, "end_to_end")

    def test_traced_metrics(self):
        self.check_mode(1, "per_layer")


class Negative(unittest.TestCase):
    def test_perturbed_expectation_fails_every_operation(self):
        for w in ("gossip-n128", "sweep-quick"):
            with self.subTest(workload=w):
                lines, result = smoke(w, 0, "--perturb")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                ratio = [l for l in lines if l.startswith("failed_ratio ")]
                self.assertEqual(float(ratio[0].split()[1]), 1.0)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "gossip-n128", "--seed", "7",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
