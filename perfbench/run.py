#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the root of the repository):
  python3 perfbench/run.py --workload {sdss_10g|q30_hot|shared_2t} \
      --seed N --seconds S --trace {0|1}

The engine library and the benchmark program are compiled from source
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs
rebuild incrementally. Build output goes to stderr. The program's stdout
is passed through: its last line is the JSON result. The exit code is
the program's (non-zero when a correctness check fails) or 1 when the
build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(build_dir, "deepsea_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sdss_10g", "q30_hot", "shared_2t"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans_%s.csv" % args.workload)
        cmd += ["--spans", spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
