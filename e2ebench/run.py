#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0

The library under src/ and the driver under e2ebench/src/ are compiled
with CMake (Release) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset; a build that is up to
date costs one `cmake --build` no-op. The benchmark's stdout is passed
through; its last line is the JSON result. Extra flags (`--size tiny`,
`--corrupt-answers`) are forwarded to the binary for the benchmark's own
tests. Exits non-zero, without a result line, when the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_steady", "chaos_churn", "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(directory):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under %s" %
                           os.path.join(ROOT, "src"))
    os.makedirs(directory, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(directory, "build.lock"), "w") as lock:
        # One build at a time per build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", directory,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", directory, "--target", "e2ebench", "-j",
             jobs],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(directory, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-answers", action="store_true")
    args = parser.parse_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print("e2ebench: build failed: %s" % error, file=sys.stderr)
        return 3

    workdir = os.path.join(directory, "runs")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--workdir", workdir]
    if args.corrupt_answers:
        command.append("--corrupt-answers")
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
