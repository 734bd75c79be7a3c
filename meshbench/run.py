#!/usr/bin/env python3
"""Builds meshbench from this checkout's sources, then runs it.

Run from the repository root:

  python3 meshbench/run.py --workload hot_home --seed 1 --seconds 10 --trace 0
  python3 meshbench/run.py --selftest [--seed N]

The build goes to $CARGO_TARGET_DIR/meshbench (default
.bench_build/meshbench); build output goes to stderr so the benchmark's
last stdout line stays its JSON result. A traced run (--trace 1) writes
its Chrome trace to <build dir>/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(targets):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(os.path.abspath(base), "meshbench")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                        *targets], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"meshbench: build failed: {e}")
    return bdir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the generators, then list which metrics "
                         "repeat exactly across two launches")
    args = ap.parse_args()

    if args.selftest:
        bdir = build(["meshbench", "meshbench_selftest"])
        status = subprocess.run(
            [os.path.join(bdir, "meshbench_selftest")]).returncode
        status |= subprocess.run(
            [os.path.join(bdir, "meshbench"), "--repeat-check",
             "--seed", str(args.seed)]).returncode
        return 1 if status else 0

    if not args.workload:
        ap.error("--workload is required")
    bdir = build(["meshbench"])
    cmd = [os.path.join(bdir, "meshbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
