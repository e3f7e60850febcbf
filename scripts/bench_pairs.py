#!/usr/bin/env python3
"""Paired benchmark runs: a parent checkout against a change checkout.

    scripts/bench_pairs.py --parent DIR --change DIR --workload W --pairs N \
        [--seconds 20] [--seeds 1,2,3] [--target-root DIR] [--out runs.jsonl]

Runs `python3 perfbench/run.py` from the root of each checkout, N times
each, alternating which side goes first in a pair (pair 0: parent first,
pair 1: change first, ...). Both runs of a pair use the same seed, taken
in turn from --seeds. Each side builds into its own CARGO_TARGET_DIR
(<checkout>/.bench_build, or <target-root>/{parent,change}), and one
untimed 1 s run per side builds and warms it before the first pair.

For every run it prints the exit code, the end-to-end metrics, every
`invalid run:` reason and the steal ticks the machine accrued during the
run (the `steal` column of the `cpu` line of /proc/stat, summed over all
CPUs). It then prints, per metric, each side's median and quartiles, the
change of the medians, and how many pairs the change won. Invalid runs
are listed but left out of the statistics.

The script only reads the checkouts' perfbench/ and BENCHMARK.json; it
changes nothing in them besides the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def steal_ticks():
    """Cumulative steal ticks over all CPUs, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def run_once(checkout, target_dir, workload, seed, seconds):
    """One perfbench run; returns its record (metrics empty on failure)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    steal0 = steal_ticks()
    start = time.monotonic()
    proc = subprocess.run(command, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.monotonic() - start
    steal1 = steal_ticks()
    record = {"exit": proc.returncode, "seed": seed, "wall_s": round(wall, 1),
              "steal": (steal1 - steal0
                        if steal0 is not None and steal1 is not None
                        else None),
              "correct": False, "metrics": {}, "invalid": []}
    for line in proc.stderr.splitlines():
        if "invalid run:" in line:
            record["invalid"].append(line.split("invalid run:", 1)[1].strip())
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
            record["correct"] = bool(result.get("correct"))
            record["metrics"] = {name: m["value"] for name, m
                                 in result.get("metrics", {}).items()}
        except ValueError:
            pass
    if proc.returncode != 0 and not record["metrics"]:
        tail = proc.stderr.strip().splitlines()[-3:]
        record["error"] = " | ".join(tail)
    return record


def quartiles(values):
    """(q1, median, q3) by linear interpolation; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(side, pair, record):
    metrics = " ".join("%s=%.4g" % (name, value)
                       for name, value in sorted(record["metrics"].items()))
    line = ("pair %2d %-6s seed %d exit %d steal %s %s" %
            (pair, side, record["seed"], record["exit"],
             record["steal"] if record["steal"] is not None else "?",
             metrics or "(no metrics)"))
    for why in record["invalid"]:
        line += "\n    invalid run: " + why
    if "error" in record:
        line += "\n    error: " + record["error"]
    return line


def summarize(records, spec):
    """Prints per-metric medians, quartiles and pair wins."""
    valid = {side: [r if r["correct"] else None for r in records[side]]
             for side in SIDES}
    for side in SIDES:
        runs = records[side]
        bad = sum(1 for r in runs if not r["correct"])
        steals = [r["steal"] for r in runs if r["steal"] is not None]
        print("%-6s %d run(s), %d invalid or failed; steal median %s" %
              (side, len(runs), bad,
               statistics.median(steals) if steals else "?"))
    print("%-10s %28s %28s %9s %9s" %
          ("metric", "parent q1/median/q3", "change q1/median/q3",
           "change", "wins"))
    for metric in spec:
        name = metric["name"]
        cols = []
        medians = []
        for side in SIDES:
            values = [r["metrics"][name] for r in valid[side]
                      if r is not None and name in r["metrics"]]
            if not values:
                cols.append("%28s" % "-")
                medians.append(None)
                continue
            q1, q2, q3 = quartiles(values)
            cols.append("%28s" % ("%.4g / %.4g / %.4g" % (q1, q2, q3)))
            medians.append(q2)
        delta = "-"
        if None not in medians and medians[0]:
            delta = "%+.1f%%" % (100.0 * (medians[1] / medians[0] - 1.0))
        lower = metric.get("better", "lower") == "lower"
        wins = 0
        pairs = 0
        for p, c in zip(valid["parent"], valid["change"]):
            if p is None or c is None or name not in p["metrics"] or \
                    name not in c["metrics"]:
                continue
            pairs += 1
            if (c["metrics"][name] < p["metrics"][name]) == lower and \
                    c["metrics"][name] != p["metrics"][name]:
                wins += 1
        print("%-10s %s %s %9s %9s" % (name, cols[0], cols[1], delta,
                                       "%d/%d" % (wins, pairs)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True,
                        choices=["net_hot", "net_cold", "lib_query"])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds, used in turn per pair")
    parser.add_argument("--target-root",
                        help="build directories go to <root>/parent and "
                             "<root>/change instead of <checkout>/.bench_build")
    parser.add_argument("--out", help="append every run as a JSON line here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        parser.error("--seeds names no seed")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    targets = {}
    for side in SIDES:
        if not os.path.exists(os.path.join(checkouts[side], "perfbench",
                                           "run.py")):
            parser.error("%s has no perfbench/run.py" % checkouts[side])
        targets[side] = (os.path.join(os.path.abspath(args.target_root), side)
                         if args.target_root else
                         os.path.join(checkouts[side], ".bench_build"))
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]

    for side in SIDES:
        warm = run_once(checkouts[side], targets[side], args.workload,
                        seeds[0], 1)
        # A 1 s run can exit 1 as an invalid run; it only has to build.
        print("warm-up %-6s exit %d%s" %
              (side, warm["exit"],
               "" if warm["metrics"] else " (no result: build failed?)"),
              flush=True)

    records = {side: [] for side in SIDES}
    out = open(args.out, "a") if args.out else None
    try:
        for pair in range(args.pairs):
            seed = seeds[pair % len(seeds)]
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = run_once(checkouts[side], targets[side],
                                  args.workload, seed, args.seconds)
                records[side].append(record)
                print(describe(side, pair, record), flush=True)
                if out is not None:
                    out.write(json.dumps(dict(record, side=side, pair=pair,
                                              workload=args.workload)) + "\n")
                    out.flush()
    finally:
        if out is not None:
            out.close()
    print()
    summarize(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
