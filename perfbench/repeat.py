#!/usr/bin/env python3
"""Runs one workload N times with different seeds and prints, for every
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median), plus the share of failed
operations.

    python3 perfbench/repeat.py --workload <name> [--runs 10] [--first-seed 1]

Each run is a gated run (--trace 0) of run_seconds from BENCHMARK.json.
Every metric's spread is compared with a third of its bound, the margin the
bounds were set with, and marked WIDE when it is past it (see README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("repeat.py: need --runs >= 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("repeat.py: run with seed %d exited %d"
                     % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("repeat.py: run with seed %d is not correct" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: attempted %d failed %d" %
              (seed, result["attempted"], result["failed"]),
              file=sys.stderr)

    print("%-32s %14s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    for name, vals in values.items():
        sp = spread(vals)
        limit = bounds[name]
        print("%-32s %14.6g %7.1f%% %7.1f%%%s" % (
            name, statistics.median(vals), 100 * sp, 100 * limit / 3,
            "  WIDE" if sp > limit / 3 else ""))
    print("failed share per run: %s" % sorted(set(shares)))


if __name__ == "__main__":
    main()
