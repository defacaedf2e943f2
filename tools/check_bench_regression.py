#!/usr/bin/env python3
"""Compare a bench --json report against a checked-in baseline.

Usage:
  tools/check_bench_regression.py BASELINE.json CURRENT.json \
      [--max-throughput-drop=0.15] [--max-p99-growth=0.25]

The simulation is deterministic, so on identical code a report matches its
baseline exactly; the thresholds only leave room for intentional perf
changes.  The gate fails when:

  * schema_version differs, or the runs used different args (comparing
    reports from different workloads is meaningless);
  * any metric named *_per_sec drops more than --max-throughput-drop
    (relative) below the baseline;
  * any histogram p99 grows more than --max-p99-growth (relative) above
    the baseline.

Counters, tables and wall_clock_unix are informational and never gated.
Every baseline metric (of any name) and every baseline histogram must
also be present in the current report: a vanished one fails, because the
bench silently stopped measuring something the baseline covers.  New
*_per_sec metrics the baseline lacks are listed as notes.

To refresh baselines after an intentional change, run the benches (e.g.
./run_benches.sh) and point the script at the results directory:

  tools/check_bench_regression.py --update-baselines results/<stamp> \
      [--baselines-dir=bench/baselines]

Every bench --json report found in the directory (trace/telemetry/health
sidecar files and event-ring dumps are skipped automatically) is
rewritten over the baseline named after its "bench" field.  Baselines
with no matching report are left untouched and listed, so a partial
bench run cannot silently erase coverage.  A report whose
schema_version differs from the existing baseline's is refused: that
means the report format changed underneath a stale results directory (or
vice versa), and overwriting would replace a meaningful baseline with an
incomparable one — delete the baseline explicitly if the schema change
is intentional.
"""

import argparse
import json
import os
import re
import sys

# Event-ring dump file names: <path>.<trip>.json for a bench's first
# simulation, <path>.<sim>.<trip>.json for later ones.
FLIGHT_DUMP = re.compile(r"\.flight(\.\d+)+\.json$")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot read {path}: {e}")
        sys.exit(2)


def relative_drop(base, cur):
    return (base - cur) / base if base > 0 else 0.0


def relative_growth(base, cur):
    return (cur - base) / base if base > 0 else 0.0


def update_baselines(results_dir, baselines_dir):
    """Regenerates the checked-in baselines from a results directory."""
    if not os.path.isdir(results_dir):
        print(f"FAIL: {results_dir} is not a directory")
        return 2
    reports = {}
    for entry in sorted(os.listdir(results_dir)):
        if not entry.endswith(".json"):
            continue
        # Observability sidecars written next to the reports by
        # run_benches.sh, and event-ring dumps (--flight_dump=<x>.flight
        # writes <x>.flight.<trip>.json, <x>.flight.<sim>.<trip>.json);
        # they are not bench reports.
        if entry.endswith((".trace.json", ".telemetry.json",
                           ".health.json")) or FLIGHT_DUMP.search(entry):
            continue
        path = os.path.join(results_dir, entry)
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"  skip {entry}: unreadable ({e})")
            continue
        bench = report.get("bench")
        if not bench or "schema_version" not in report:
            print(f"  skip {entry}: not a bench report")
            continue
        if bench in reports:
            print(f"FAIL: duplicate reports for bench {bench!r} in "
                  f"{results_dir}")
            return 2
        reports[bench] = (entry, report)

    if not reports:
        print(f"FAIL: no bench reports found in {results_dir}")
        return 2

    existing = {
        name[:-len(".json")]
        for name in os.listdir(baselines_dir)
        if name.endswith(".json")
    } if os.path.isdir(baselines_dir) else set()
    os.makedirs(baselines_dir, exist_ok=True)
    refused = []
    for bench, (entry, report) in sorted(reports.items()):
        dest = os.path.join(baselines_dir, f"{bench}.json")
        verb = "updated" if bench in existing else "created"
        if bench in existing:
            old_schema = load(dest).get("schema_version")
            new_schema = report.get("schema_version")
            if old_schema != new_schema:
                print(f"  REFUSED {dest}: schema_version {old_schema} != "
                      f"report {entry} schema_version {new_schema} "
                      f"(stale results? delete the baseline to force)")
                refused.append(bench)
                continue
        with open(dest, "w", encoding="utf-8") as f:
            json.dump(report, f, separators=(",", ":"))
            f.write("\n")
        print(f"  {verb} {dest} from {entry}")

    stale = sorted(existing - set(reports))
    for bench in stale:
        print(f"  WARNING: baseline {bench}.json has no report in "
              f"{results_dir}; left as-is")
    if refused:
        print(f"FAIL: {len(refused)} baseline(s) refused on "
              f"schema_version mismatch: {', '.join(refused)}")
        return 1
    print(f"PASS: {len(reports)} baseline(s) written to {baselines_dir}"
          + (f", {len(stale)} not refreshed" if stale else ""))
    return 0


def main():
    if "--update-baselines" in sys.argv[1:]:
        parser = argparse.ArgumentParser(
            description="regenerate checked-in bench baselines")
        parser.add_argument("--update-baselines", action="store_true")
        parser.add_argument("results_dir",
                            help="directory of bench --json reports "
                                 "(e.g. results/<stamp>)")
        parser.add_argument("--baselines-dir", default="bench/baselines",
                            help="destination directory "
                                 "(default bench/baselines)")
        args = parser.parse_args()
        return update_baselines(args.results_dir, args.baselines_dir)

    parser = argparse.ArgumentParser(
        description="perf-regression gate for bench --json reports")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-throughput-drop", type=float, default=0.15,
                        help="max relative drop for *_per_sec metrics "
                             "(default 0.15)")
    parser.add_argument("--max-p99-growth", type=float, default=0.25,
                        help="max relative growth for histogram p99s "
                             "(default 0.25)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []
    notes = []

    if base.get("schema_version") != cur.get("schema_version"):
        failures.append(
            f"schema_version mismatch: baseline "
            f"{base.get('schema_version')} vs current "
            f"{cur.get('schema_version')}")
    if base.get("bench") != cur.get("bench"):
        failures.append(f"bench mismatch: {base.get('bench')!r} vs "
                        f"{cur.get('bench')!r}")
    if base.get("args") != cur.get("args"):
        failures.append(
            f"args mismatch (different workload?): baseline "
            f"{base.get('args')} vs current {cur.get('args')}")

    # --- throughput: *_per_sec metrics ---
    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for name, base_val in sorted(base_metrics.items()):
        if name not in cur_metrics:
            failures.append(f"metric {name} missing from current report")
            continue
        if not name.endswith("_per_sec"):
            continue
        cur_val = cur_metrics[name]
        drop = relative_drop(base_val, cur_val)
        line = (f"{name}: {base_val:.4g} -> {cur_val:.4g} "
                f"({-drop * 100:+.1f}%)")
        if drop > args.max_throughput_drop:
            failures.append(f"throughput regression: {line}")
        elif drop < -args.max_throughput_drop:
            notes.append(f"improvement (consider refreshing baseline): "
                         f"{line}")
        else:
            notes.append(f"ok: {line}")

    # --- latency: histogram p99s ---
    base_hists = base.get("histograms", {})
    cur_hists = cur.get("histograms", {})
    for name, base_h in sorted(base_hists.items()):
        if name not in cur_hists:
            failures.append(f"histogram {name} missing from current report")
            continue
        base_p99, cur_p99 = base_h.get("p99", 0), cur_hists[name].get("p99", 0)
        growth = relative_growth(base_p99, cur_p99)
        line = (f"{name}.p99: {base_p99} -> {cur_p99} "
                f"({growth * 100:+.1f}%)")
        if growth > args.max_p99_growth:
            failures.append(f"p99 regression: {line}")
        else:
            notes.append(f"ok: {line}")

    for extra in sorted(set(cur_metrics) - set(base_metrics)):
        if extra.endswith("_per_sec"):
            notes.append(f"new metric not in baseline: {extra}")

    bench = cur.get("bench", "?")
    for n in notes:
        print(f"  [{bench}] {n}")
    if failures:
        print(f"\nFAIL: {bench}: {len(failures)} regression(s) vs "
              f"{args.baseline}")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"PASS: {bench}: no regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
