#!/usr/bin/env python3
"""Steadiness report: run each workload k times and summarise every metric.

Usage (from the root of a checkout):
    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --workloads sampled_long --runs 5 --trace 1

Each run uses its own seed (--first-seed, --first-seed + 1, ...), as
`python3 perfbench/run.py --workload W --seed S --seconds T --trace X`.
For every metric the report prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the quartile spread (q3 - q1) /
median, and the full range (max - min) / median.  With --trace 0 each
end-to-end metric's quartile spread, setup_s's too, is compared with a
third of its bound in BENCHMARK.json, the target the bounds were set
from; the exit code is 1 if any is wider.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"run reported failures: {' '.join(cmd)}\n"
                 + "\n".join(lines[-30:]))
    return result["metrics"]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            metrics = run_once(workload, args.first_seed + k, args.seconds,
                               args.trace)
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>9} {'rng/med':>9}  verdict")
        for name, (unit, v) in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(v) - min(v)) / med if med else 0.0
            verdict = ""
            if name in bounds:
                ok = iqr < bounds[name] / 3
                steady = steady and ok
                verdict = f"{'ok' if ok else 'WIDE'} (bound {bounds[name]})"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{iqr:9.4f} {rng:9.4f}  {verdict} {unit}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
