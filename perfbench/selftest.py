#!/usr/bin/env python3
"""Self-tests for the granulock benchmark.

Run from the repository root (builds the runner on first use):

    python3 perfbench/selftest.py

They check that an output check fires on a corrupted metric, that the
metric names and units the command prints are the ones BENCHMARK.json
declares, and that the seed alone decides the generated inputs and the
simulated results.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The cheapest workload: about a second per grid pass.
WORKLOAD = "explicit_mgl"


def run(*flags):
    """Runs the benchmark; returns (exit code, stdout lines, result JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD]
        + list(flags),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def field(lines, name):
    """The value after `name` on the benchmark's "workload ..." line."""
    for line in lines:
        words = line.split()
        if words and words[0] == "workload":
            return words[words.index(name) + 1]
    raise AssertionError(f"no workload line in {lines}")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchmarkSelfTest(unittest.TestCase):
    def test_corrupted_metric_fails_the_run(self):
        code, lines, result = run("--seed", "3", "--seconds", "1",
                                  "--corrupt-cell", "5")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("phases sum to" in l for l in lines), lines)

    def test_printed_metrics_match_benchmark_json(self):
        code, _, result = run("--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            declared("end_to_end"))
        code, _, result = run("--seed", "1", "--seconds", "2", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            declared("per_layer"))

    def test_seed_decides_inputs_and_results(self):
        _, first, _ = run("--seed", "7", "--seconds", "1")
        _, again, _ = run("--seed", "7", "--seconds", "1")
        _, other, _ = run("--seed", "8", "--seconds", "1")
        self.assertEqual(field(first, "digest"), field(again, "digest"))
        self.assertEqual(field(first, "inputs"), field(again, "inputs"))
        self.assertNotEqual(field(first, "inputs"), field(other, "inputs"))
        self.assertNotEqual(field(first, "digest"), field(other, "digest"))


if __name__ == "__main__":
    unittest.main()
