#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 pabench/run.py --workload stock_cold --seed 1 --seconds 20 --trace 0

Configures and builds pabench/ (which pulls in ../src) into .bench_build,
then runs .bench_build/pa_bench with the same arguments. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if shutil.which("cmake") is None:
        sys.exit("pabench: cmake not found")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4",
                  "--target", "pa_bench", "pabench_selftest"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("pabench: build timed out")
        if done.returncode != 0:
            sys.exit(f"pabench: build step failed: {' '.join(cmd)}")


def main():
    build()
    # Relative paths from the root keep the daemon's socket path short.
    cmd = [os.path.join(BUILD, "pa_bench"), *sys.argv[1:],
           "--expected", "pabench/expected.txt",
           "--out-dir", ".bench_build/results"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("pabench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
