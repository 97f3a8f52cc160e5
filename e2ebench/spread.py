#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 e2ebench/spread.py --workload serve_mix --runs 10 [--seconds 15]
        [--first-seed 1] [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged. Exits non-zero when a
run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            print("seed %d failed with code %d" % (seed,
                                                  completed.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect output" % seed)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, flush=True)

    print("%-36s %16s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print("%-36s %16.6g %9.4f %7s%s" % (
            name, median, spread, "-" if bound is None else bound, flag))
        if args.verbose:
            print("    " + " ".join("%.4g" % v for v in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
