#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_rtt --seed 1 --seconds 20 --trace 0

The first call configures and compiles a Release build under
.bench_build/perfbench (later calls rebuild only what changed); build output
goes to standard error. The benchmark's own output, whose last line is the
JSON result, goes to standard output, and its exit status is returned.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Few compile jobs: the build shares the machine with whatever else runs.
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", str(BUILD_JOBS)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD_DIR, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
