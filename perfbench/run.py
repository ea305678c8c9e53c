#!/usr/bin/env python3
"""Attestation benchmark entry point.

Builds the perfbench package from the checkout's sources (incremental
after the first run), then runs one workload:

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Build output goes to stderr; the benchmark's own output, ending in the
one-line JSON result, goes to stdout.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("verify_mix", "wire_hot", "wire_sweep")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing from "
                 "this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", target],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness's percentile rule and "
                             "failure counting, then exit")
    args = parser.parse_args()
    if args.self_test:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    sys.stdout.flush()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
