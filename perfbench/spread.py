#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds
in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--workload NAME ...] [--first-seed 1]

runs every workload (or the named ones) ``--runs`` times, each with another
seed, and reports for each end-to-end metric its median and its spread: the
distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A spread passes when it is within the metric's bound, ``setup_s`` included.
With ``--sets 2`` the runs are repeated, and every metric's medians must
agree: the larger may exceed the smaller by at most the bound, whichever
set it came from. Exit status 1 on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median of a metric's values across runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def check(values_by_metric, bounds):
    """Rows of (metric, median, spread, bound, ok), in bound order."""
    rows = []
    for name, bound in bounds.items():
        values = values_by_metric.get(name, [])
        if len(values) < 2:
            rows.append((name, None, None, bound, False))
            continue
        s = spread(values)
        ok = s <= bound
        rows.append((name, statistics.median(values), s, bound, ok))
    return rows


def medians_disagree(first, second, bounds):
    """Names of metrics whose two medians differ by more than the bound, as
    a share of the smaller one. The check is symmetric: a set that is much
    faster than the other fails as much as one that is much slower."""
    apart = []
    for name, bound in bounds.items():
        a, b = statistics.median(first[name]), statistics.median(second[name])
        if abs(b - a) / min(a, b) > bound:
            apart.append(name)
    return apart


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        sets = []
        for n in range(args.sets):
            values = {}
            for k in range(args.runs):
                for name, v in run(bench, w, args.first_seed + k).items():
                    values.setdefault(name, []).append(v)
            print(f"== {w} (set {n + 1}, {args.runs} runs)")
            for name, med, s, bound, ok in check(values, bounds):
                failed |= not ok
                if s is None:
                    print(f"  {name:<14} too few values  FAIL")
                    continue
                print(f"  {name:<14} median {med:>14.6g}  spread {s:>8.4f}  bound {bound}"
                      f"  {'ok' if ok else 'FAIL'}")
            print("  values: " + json.dumps(values))
            if sets:
                apart = medians_disagree(sets[0], values, bounds)
                failed |= bool(apart)
                print(f"  medians vs set 1: {'apart: ' + ', '.join(apart) if apart else 'ok'}")
            sets.append(values)
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
