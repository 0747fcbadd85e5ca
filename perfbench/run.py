#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <serve_tick|serve_paced|train_eval>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr. The benchmark's
standard output is passed through; its last line is the JSON result.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("serve_tick", "serve_paced", "train_eval")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        sys.exit(f"perfbench: no library sources at {src}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".bench_build", "perfbench-run",
                        f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
