#!/usr/bin/env python3
"""Build and run the host-time benchmark of the PageForge simulator.

    python3 hostbench/run.py --workload mem-path --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Configures and builds hostbench/ (which
compiles the simulator from ../src) into $CARGO_TARGET_DIR/hostbench,
default .bench_build/hostbench, then runs one workload, or each in
turn with 'all'. The last line of standard output is the (last)
workload's JSON result; the exit code is
nonzero when the build fails or a correctness check fails. Phase spans
of every repetition are written to the build directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
WORKLOADS = ("mem-path", "dedup-1mc", "pf-4mc-churn")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; stdout stays clean."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "hostbench")
    return binary if os.path.isfile(binary) else None


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """Run one workload in its own process; return its exit code."""
    spans = os.path.join(build_dir, f"spans-{workload}-{seed}-{trace}.json")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:g}", f"--trace={trace}", f"--spans={spans}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: did not finish within {RUN_TIMEOUT_S} s")
        return 3
    out = proc.stdout.rstrip("\n")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if out:
        print(out, flush=True)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload}: no result line (exit code {proc.returncode})")
        return proc.returncode or 4
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hostbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    # 'all' runs each workload in a process of its own (peak RSS is
    # per process); the exit code is nonzero if any of them failed.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(binary, build_dir, w, args.seed, args.seconds,
                          args.trace) for w in workloads]
    return next((c for c in codes if c), 0)


if __name__ == "__main__":
    sys.exit(main())
