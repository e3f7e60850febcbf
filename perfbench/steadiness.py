#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads net_hot,...]
        [--first-seed 1] [--trace 0] [--save runs.json] [--compare old.json]

Runs perfbench/run.py --runs times per workload, each run with the next
seed, and prints for every metric the median, the quartiles Q1 and Q3 (as
Python's statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds a third of
its bound is marked "wide"; one whose spread exceeds the bound itself is
named as breaking it, setup_s included. --save writes the measured values as JSON; --compare
reads such a file (an earlier set of runs) and names every end-to-end
metric whose median got worse than the earlier median by more than its
bound. --runs 0 with --save/--compare compares two saved files.
Exits 1 when a run fails or a bound is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print("  run %s seed %d FAILED (exit %d)"
              % (workload, seed, proc.returncode))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_row(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def report(values, specs):
    """Prints the per-metric table; returns True when a bound is broken."""
    broken = False
    for workload, metrics in values.items():
        print("\n%s (%d runs)" % (workload, len(next(iter(metrics.values()),
                                                      []))))
        print("  %-24s %12s %12s %12s %8s %6s" %
              ("metric", "median", "Q1", "Q3", "spread", "bound"))
        for name, vals in metrics.items():
            median, q1, q3, spread = spread_row(vals)
            bound = specs.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark = "BREAKS BOUND"
                    broken = True
                elif spread > bound / 3:
                    mark = "wide (> bound/3)"
            print("  %-24s %12.4f %12.4f %12.4f %8.4f %6s %s" %
                  (name, median, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, mark))
    return broken


def compare(old, new, specs):
    """Names metrics whose median worsened past the bound; True if any."""
    broken = False
    print("\nmedians against the earlier set:")
    for workload, metrics in new.items():
        for name, vals in metrics.items():
            spec = specs.get(name)
            earlier = old.get(workload, {}).get(name)
            if spec is None or "bound" not in spec or not earlier:
                continue
            m0 = statistics.median(earlier)
            m1 = statistics.median(vals)
            worse = (m1 - m0) / m0 if spec["better"] == "lower" \
                else (m0 - m1) / m0
            mark = "WORSE THAN BOUND" if worse > spec["bound"] else "ok"
            broken |= worse > spec["bound"]
            print("  %-10s %-12s %12.4f -> %12.4f  %+7.2f%% worse  %s" %
                  (workload, name, m0, m1, 100 * worse, mark))
    return broken


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    failed = False
    values = {}
    if args.runs == 0 and args.save:
        with open(args.save) as f:
            values = json.load(f)["values"]
    for workload in args.workloads.split(",") if args.runs else []:
        values[workload] = {}
        for i in range(args.runs):
            got = run_once(workload, args.first_seed + i, args.seconds,
                           args.trace)
            if got is None:
                failed = True
                continue
            for name, value in got.items():
                values[workload].setdefault(name, []).append(value)
    if args.runs and args.save:
        with open(args.save, "w") as f:
            json.dump({"trace": args.trace, "values": values}, f, indent=1)
    broken = report(values, specs)
    if args.compare:
        with open(args.compare) as f:
            broken |= compare(json.load(f)["values"], values, specs)
    sys.exit(1 if failed or broken else 0)


if __name__ == "__main__":
    main()
