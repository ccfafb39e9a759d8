#!/usr/bin/env python3
"""Tests for the benchmark itself.

Run from the root of a checkout (builds rrbench first if needed):
    python3 perfbench/test_perfbench.py

The C++ half lives in `rrbench selftest`: the timing decorator forwards
every Renamer virtual, traced runs are bit-identical to untraced runs on
every kernel and scheme (exact, sampled and synthetic) at a small cap,
seeds behave, a corrupted reference fails exactly the corrupted runs,
and a stale or truncated reference is a named error.  This file drives
that and the command-line contract: the result line, named diagnostics,
the stored references.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (perfbench/run.py: the build step)

BINARY = None


def rrbench(*args, env=None):
    return subprocess.run([str(BINARY), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_selftest(self):
        proc = rrbench("selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("PASSED", proc.stdout)

    def test_unknown_workload_is_named(self):
        proc = rrbench("--workload", "nosuch")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown workload 'nosuch'", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_refuses_instrumenting_environment(self):
        for var in ("RRS_AUDIT", "RRS_PROF", "RRS_TELEMETRY",
                    "RRS_PIPETRACE", "RRS_TRACE_DIR", "RRS_SAMPLE",
                    "RRS_FLIGHTREC_DEPTH", "RRS_PROGRESS"):
            env = dict(os.environ, **{var: "1"})
            proc = rrbench("--workload", "synthetic_sweep", "--seconds",
                           "1", env=env)
            self.assertNotEqual(proc.returncode, 0, var)
            self.assertIn(f"refusing to run with {var} set", proc.stderr)

    def test_result_lines_carry_the_declared_metrics(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = rrbench("--workload", "synthetic_sweep", "--seed", "7",
                           "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            res = result_line(proc)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 126)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            if trace == "1":
                self.assertEqual(
                    res["metrics"]["harness.timed_capture_misses"]["value"],
                    0)

    def test_exact_reference_agrees_with_fig11_baseline(self):
        ref = json.loads((BENCH_DIR / "reference" /
                          "exact_fig11.json").read_text())
        base = json.loads((ROOT / "bench" / "baselines" /
                           "BENCH_fig11_ipc.json").read_text())
        self.assertEqual(ref["cap"], 20000)
        self.assertEqual(len(ref["runs"]), len(base["runs"]))
        for r, b in zip(ref["runs"], base["runs"]):
            self.assertEqual((r["kernel"], r["scheme"], r["insts"],
                              r["cycles"]),
                             (b["workload"], b["scheme"], b["insts"],
                              b["cycles"]))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
