#!/usr/bin/env python3
"""Build rrbench from source and run it.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload exact_fig11 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py reference --workload sampled_long

The first call configures and builds perfbench/CMakeLists.txt (the rrsim
library plus the rrbench program, Release) into .bench_build/perfbench;
later calls rebuild incrementally.  Build output goes to stderr, so the
last line of stdout is rrbench's own result line.  All arguments are
passed to rrbench unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = "4"


def build():
    """Configure (once) and build rrbench; return its path or exit 2."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
                  "--target", "rrbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("rrbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return BUILD_DIR / "rrbench"


def main():
    binary = build()
    sys.stdout.flush()
    # Replace this process: rrbench's exit code and output are the run's.
    os.execv(str(binary), [str(binary)] + sys.argv[1:])


if __name__ == "__main__":
    main()
