#!/usr/bin/env python3
"""Runs one benchmark workload against the KV-CSD simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build at the checkout root), runs it, echoes its
human-readable report, and prints as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is non-zero when the build
fails, an answer disagrees with the host model, or the metric names drift
from BENCHMARK.json. README.md describes the workloads and metrics.

--workload all runs every workload with --trace 0 and then 1, prints every
report, and ends with one combined line whose metric names carry the
workload ("point_get.get_kops").
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "point_get", "update_mix", "vpic_query")
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the driver (a no-op once built); returns its
    path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "perfbench_driver"]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_driver")


def expected_names(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def run_driver(driver, workload, seed, seconds, trace, scale=None):
    """Runs the driver; returns (exit code, report lines, result dict)."""
    cmd = [driver, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace]
    if scale is not None:
        cmd.append("--scale=%g" % scale)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        code, lines, result = run_driver(driver, workload, args.seed,
                                         args.seconds, trace)
        for line in lines:
            print(line)
        if result is None:
            sys.exit("perfbench: the driver printed no result (exit %d)" % code)
        names = expected_names(trace)
        if names is not None and names != sorted(result["metrics"]):
            missing = sorted(set(names) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(names))
            sys.exit("perfbench: metrics drift from BENCHMARK.json: missing "
                     "%s, extra %s" % (missing, extra))
        total["correct"] = total["correct"] and bool(result["correct"]) \
            and code == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = workload + "." if len(runs) > 1 else ""
        for name, metric in result["metrics"].items():
            total["metrics"][prefix + name] = metric
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
