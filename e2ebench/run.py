#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload raizn-partial-verify --seed 1 \\
        --seconds 20 --trace 0

`--workload all` runs every workload in turn, each printing its own
metrics and JSON line; the exit code is then the first non-zero one.

The simulator (src/) and the benchmark are compiled in Release mode
under .bench_build/e2ebench. The build is incremental, so only the first
run pays for it. Every argument is passed on to the benchmark binary
(see e2ebench/README.md). With --trace 1 and no --trace-out, the spans
of the last traced round are written to
.bench_build/e2ebench/spans-<workload>.csv.

Build output goes to stderr; the benchmark's last stdout line is its
JSON result. The exit code is the benchmark's, or 1 when the build
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ["raizn-partial-verify", "raizn-fullstripe",
             "raizn-degraded-rebuild", "mdraid-overwrite"]


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if res.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "e2ebench")


def run(binary, args):
    """Runs the benchmark once; returns its exit code."""
    if "--trace" in args and "--trace-out" not in args:
        i = args.index("--trace")
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "run"
        if i + 1 < len(args) and args[i + 1] != "0":
            args = args + ["--trace-out",
                           os.path.join(BUILD, f"spans-{workload}.csv")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if "--workload" in args[:-1] and \
            args[args.index("--workload") + 1] == "all":
        i = args.index("--workload") + 1
        codes = [run(binary, args[:i] + [w] + args[i + 1:])
                 for w in WORKLOADS]
        return next((c for c in codes if c != 0), 0)
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
