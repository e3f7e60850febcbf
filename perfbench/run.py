#!/usr/bin/env python3
"""One measurement of the repository benchmark.

    python3 perfbench/run.py --workload <net_hot|net_cold|lib_query> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (a CMake project that
compiles ../src) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the measuring program, and prints as its last
line one JSON object: correct, attempted, failed, and the metrics
BENCHMARK.json declares -- its end_to_end list with --trace 0, its
per_layer list with --trace 1. Exits non-zero, without that line, when the
build or the program fails, and with correct=false when any request was
shed, failed or answered wrong, a reload failed, or the run is invalid
(see perfbench/README.md).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stays under the 180 s the benchmark allows one run.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then (re)builds the program; output goes to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["net_hot", "net_cold", "lib_query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    program = build(out_dir)
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measuring program exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("measuring program exited %d without a result" % proc.returncode)

    metrics = {}
    for spec in declared_metrics(args.trace):
        got = raw["metrics"].get(spec["name"])
        if got is None:
            fail("run did not measure " + spec["name"])
        if got["unit"] != spec["unit"]:
            fail("%s measured in %s, declared in %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    for why in raw["invalid"]:
        print("perfbench: invalid run: " + why, file=sys.stderr)
    correct = (raw["correct"] and raw["failed"] == 0 and not raw["invalid"]
               and proc.returncode == 0)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
