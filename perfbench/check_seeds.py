#!/usr/bin/env python3
"""Seed-robustness check of the perfbench benchmark itself.

    python3 perfbench/check_seeds.py [--seeds 1 2 3] [--seconds 15]
                                     [--workloads fraud_batch ...]

Runs every workload (default: all in BENCHMARK.json) on each seed through
perfbench/run.py and fails (exit 1) unless, for every workload,

  * every run exits 0 and reports correct outputs with no failed operation
    (each run checks itself against an in-process oracle; no expected count
    is stored anywhere), and
  * the timed phase is of comparable length on every seed: the largest
    median wall_s is at most MAX_WALL_RATIO times the smallest. Workload
    sizes are fixed parameters, never calibrated by wall time, so this is
    what keeps a seed from producing a trivial or a runaway workload (a
    single scale-free draw can swing 30x). The ratio leaves room for host
    noise, which alone has moved whole runs by up to 1.6x.

It also prints, per end-to-end metric, the median over seeds and the spread
(first-to-third quartile distance over the median, as
statistics.quantiles(values, n=4) gives them) next to the metric's bound in
BENCHMARK.json, marking spreads above the bound. Those are for reading with
ten or more seeds; with three they are too noisy to fail on. Seed 1 is the
default seed. Run from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_WALL_RATIO = 2.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    args = parser.parse_args()
    if len(args.seeds) < 3:
        parser.error("need the default seed and at least two others")

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            code, result = run_once(workload, seed, args.seconds)
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] >= 1)
            print("%-13s seed %-4d %s" % (
                workload, seed,
                "ok" if good else "FAILED (exit %d, result %s)" % (code, result)))
            ok = ok and good
            if result is not None:
                for name in values:
                    if name in result["metrics"]:
                        values[name].append(result["metrics"][name]["value"])
        walls = values.get("wall_s", [])
        if walls and max(walls) > MAX_WALL_RATIO * min(walls):
            print("%-13s wall_s ranges %.3g..%.3g s over seeds: not comparable"
                  % (workload, min(walls), max(walls)))
            ok = False
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < len(args.seeds):
                print("%-13s %-14s missing on some seeds" % (
                    workload, metric["name"]))
                ok = False
                continue
            s = spread(vals)
            print("%-13s %-14s median %-12.6g %-4s spread %.4f (bound %.2f)%s"
                  % (workload, metric["name"], statistics.median(vals),
                     metric["unit"], s, metric["bound"],
                     "" if s <= metric["bound"] else "  above bound"))
    print("seed check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
