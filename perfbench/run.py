#!/usr/bin/env python3
"""varmor benchmark entry point.

    python3 perfbench/run.py --workload reduce|study|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a varmor checkout. The first run builds the benchmark
(perfbench/CMakeLists.txt, which builds the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild incrementally. The last line of standard output is the
result object. Build logs go to standard error.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns False on failure."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
                return False
    return True


def run(cmd):
    """Runs the benchmark binary, passing its output through."""
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["reduce", "study", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    if args.selftest:
        return run([os.path.join(out_dir, "perfbench_selftest")])

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    rates = config["serve"]["rates_rps"]
    tag = "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid())
    cmd = [os.path.join(out_dir, "varmor_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work", tag),
           "--rates", "%r,%r,%r" % (rates["light"], rates["ref"], rates["heavy"])]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, tag + ".jsonl")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
