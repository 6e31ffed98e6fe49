#!/usr/bin/env python3
"""Steadiness table: runs workloads repeatedly and prints, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median.

Usage, from the root of the repository:

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                               [--sets 1] [--workload NAME ...]

Each run uses its own seed: set k (0-based) runs seeds
first-seed + k * runs, ..., first-seed + (k + 1) * runs - 1. A spread above
a third of the metric's bound in BENCHMARK.json is marked '!'. With
--sets 2 or more, every later set's median is also compared with the first
set's: a gap in the worse direction above the bound is marked '!', and so
is a share of failed operations that differs between sets. Quartiles are
Python's statistics.quantiles(values, n=4). Exits 1 if anything is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    print(f"{'set':>3} {'workload':<16} {'metric':<16} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  "
          f"fail/attempted")
    steady = True
    medians = {}  # (workload, metric) -> median of each set
    shares = {}   # workload -> failed share of each set
    for k in range(args.sets):
        for workload in workloads:
            first = args.first_seed + k * args.runs
            results = [run_once(workload, first + i, args.seconds)
                       for i in range(args.runs)]
            share = sorted({r["failed"] / r["attempted"] for r in results})
            shares.setdefault(workload, []).append(share)
            steady &= all(r["correct"] for r in results) and len(share) == 1
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                ok = spread <= m["bound"] / 3
                steady &= ok
                medians.setdefault((workload, name), []).append(median)
                print(f"{k + 1:>3} {workload:<16} {name:<16} {median:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                      f"{m['bound']:>6}{'' if ok else ' !'}  {share}",
                      flush=True)

    if args.sets > 1:
        print(f"\n{'set':>3} {'workload':<16} {'metric':<16} "
              f"{'gap vs set 1 (worse > 0)':>26} {'bound':>6}")
        for (workload, name), ms in medians.items():
            m = metrics[name]
            for k in range(1, len(ms)):
                gap = (ms[k] - ms[0]) / ms[0]
                if m["better"] == "higher":
                    gap = -gap
                ok = gap <= m["bound"]
                steady &= ok
                print(f"{k + 1:>3} {workload:<16} {name:<16} {gap:>26.4f} "
                      f"{m['bound']:>6}{'' if ok else ' !'}")
        for workload, per_set in shares.items():
            if any(s != per_set[0] for s in per_set):
                steady = False
                print(f"{workload}: failed share differs between sets "
                      f"{per_set} !")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
