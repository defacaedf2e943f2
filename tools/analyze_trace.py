#!/usr/bin/env python3
"""Latency-breakdown analyzer for KV-CSD bench reports, traces and telemetry.

Usage:
  tools/analyze_trace.py [TRACE.json [TELEMETRY.json]] [--report=REPORT.json]
      [--strict-flows] [--require-opcode=NAME ...]
      [--require-series=NAME ...] [--require-bottleneck=RESOURCE]

  * ``--report``: every command carries a latency ledger whose layers add
    up to its round trip (DESIGN.md §9); the client records one histogram
    per opcode and layer, ``<prefix>cmd.<opcode>.<layer>_ns``, and the
    round trip per device path tag, ``<prefix>cmd.<opcode>.path.<path>_ns``.
    The analyzer prints one opcode x layer p50/p99 table from them.
    ``--require-opcode=NAME`` fails unless the report holds ledger
    samples of that opcode, ``--require-series=NAME`` unless it holds
    that histogram with samples.
  * TRACE (``--trace=`` Chrome trace_event JSON): the fold attribution
    table (each ``recompact`` span split into its ``recompact.<stage>``
    children) and, for sharded runs, the router's scatter-gather table.
    Every flow group keyed by (name, id) must hold one 's' and one 'f' in
    timestamp order: warnings by default, failures under
    ``--strict-flows``, which also refuses a trace the tracer capped
    (``otherData.dropped_events`` > 0).
  * TELEMETRY: a summary of every gauge and, from the ``util.*`` gauges,
    the bottleneck line; ``--require-bottleneck=RESOURCE`` fails unless
    it names RESOURCE.

Everything is reported in nanoseconds.
"""

import json
import math
import re
import sys
from collections import Counter, defaultdict

USAGE = (
    "usage: analyze_trace.py [TRACE.json [TELEMETRY.json]] "
    "[--report=REPORT.json] [--strict-flows] [--require-opcode=NAME ...] "
    "[--require-series=NAME ...] [--require-bottleneck=RESOURCE]"
)

# The ledger's layers, in critical-path order (sim/ledger.h), then the
# overlapped total that lies outside their sum.
LAYERS = ("host_queue", "host_cpu", "pcie_h2d", "sq_wait", "dispatch",
          "soc_wait", "soc", "nand_wait", "nand", "keyspace_wait",
          "pcie_d2h", "reap", "other")
LEDGER_RE = re.compile(r"^(.*cmd)\.([a-z0-9_]+)\.(%s|overlapped)_ns$"
                       % "|".join(LAYERS))


def die(msg):
    sys.stderr.write("analyze_trace: %s\n" % msg)
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s %s: %s" % (what, path, e))


def percentile(sorted_vals, p):
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1,
                      math.ceil(p / 100.0 * len(sorted_vals)) - 1))
    return sorted_vals[rank]


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.3fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.3fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.3fus" % (ns / 1e3)
    return "%dns" % int(ns)


# Sharded testbeds prefix every per-device track ("shard3.nvme.sq",
# "shard3.device", "shard3.query", ...); the router's own spans live on
# an unprefixed "router" track.
SHARD_TRACK_RE = re.compile(r"^shard(\d+)\.(.*)$")


def split_track(track):
    """'shard3.nvme.sq' -> (3, 'nvme.sq'); unsharded -> (None, track)."""
    m = SHARD_TRACK_RE.match(track)
    if m:
        return int(m.group(1)), m.group(2)
    return None, track


def track_map(events):
    """tid -> track name, from thread_name metadata events."""
    tracks = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            tracks[e.get("tid")] = e.get("args", {}).get("name", "")
    return tracks


def check_flows(events, strict, dropped):
    """Validate flow-event pairing; returns the number of violations."""
    if dropped and strict:
        die("the trace is capped (%d events dropped): its flows cannot be "
            "checked; trace a smaller run" % dropped)
    groups = defaultdict(list)
    for e in events:
        if e.get("cat") == "flow" and e.get("ph") in ("s", "f"):
            groups[(e.get("name"), e.get("id"))].append(e)
    bad = 0
    for (name, fid), evs in sorted(groups.items()):
        phases = sorted(e["ph"] for e in evs)
        begins = phases.count("s")
        ends = phases.count("f")
        if begins != 1 or ends != 1:
            bad += 1
            sys.stderr.write(
                "analyze_trace: malformed flow (%s, id=%s): "
                "%d begin(s), %d end(s)\n" % (name, fid, begins, ends))
            continue
        ts = {e["ph"]: float(e["ts"]) for e in evs}
        if ts["s"] > ts["f"]:
            bad += 1
            sys.stderr.write(
                "analyze_trace: disconnected flow (%s, id=%s): "
                "timestamps out of order\n" % (name, fid))
    if bad and strict:
        die("%d malformed/disconnected flow event group(s)" % bad)
    return len(groups), bad


# Child spans of one incremental fold, in execution order. Whatever the
# fold spent outside them (flushing the delta tail, the RECOMPACTING
# persist, the bloom update) shows up as "other". "commit" ends at the
# table persist; "release" is the zone-reset batch after it.
FOLD_STAGES = ("values", "pidx", "sidx", "commit", "release")


def print_fold_breakdown(events, tracks):
    """Per-stage attribution of incremental re-compaction time.

    Each ``recompact`` span on a (possibly shard-prefixed) ``compaction``
    track encloses one ``recompact.<stage>`` span per stage on the same
    track; stages are joined to the fold whose interval contains them.
    """
    folds = defaultdict(list)   # track -> [(begin, end)]
    stages = defaultdict(list)  # track -> [(begin, end, stage)]
    for e in events:
        if e.get("ph") != "X":
            continue
        track = tracks.get(e.get("tid"), "")
        if split_track(track)[1] != "compaction":
            continue
        name = e.get("name", "")
        begin = float(e.get("ts", 0)) * 1000.0
        end = begin + float(e.get("dur", 0)) * 1000.0
        if name == "recompact":
            folds[track].append((begin, end))
        elif name.startswith("recompact."):
            stages[track].append((begin, end, name[len("recompact."):]))
    if not folds:
        return
    totals = defaultdict(float)
    total = 0.0
    count = 0
    for track, spans in folds.items():
        for begin, end in spans:
            count += 1
            total += end - begin
            for s_begin, s_end, stage in stages[track]:
                if begin <= s_begin and s_end <= end:
                    totals[stage] += s_end - s_begin
    print()
    print("fold attribution (%d folds, %s total):" % (count, fmt_ns(total)))
    hdr = "%-10s %12s %12s %7s" % ("stage", "total", "per fold", "share")
    print(hdr)
    print("-" * len(hdr))
    other = total - sum(totals.values())
    for stage in FOLD_STAGES + ("other",):
        ns = other if stage == "other" else totals.get(stage, 0.0)
        print("%-10s %12s %12s %6.1f%%" % (
            stage, fmt_ns(ns), fmt_ns(ns / count),
            100.0 * ns / total if total else 0.0))


def print_scatter_breakdown(events, tracks):
    """Scatter-gather attribution from the ``router`` track.

    Every routed fan-out query (scan / secondary_scan / select /
    aggregate) emits one span whose args carry the fan-out width, merged
    row count, and the slowest shard's identity and elapsed time. The
    gather cannot finish before its slowest shard, so ``dur -
    slowest_ns`` is the router's own merge/fold overhead — the column to
    watch when scaling out stops paying.
    """
    by_kind = defaultdict(list)
    for e in events:
        if e.get("ph") != "X":
            continue
        if tracks.get(e.get("tid"), "") != "router":
            continue
        args = e.get("args", {})
        if "fanout" not in args:
            continue
        by_kind[e.get("name", "?")].append({
            "dur": float(e.get("dur", 0)) * 1000.0,
            "fanout": int(args.get("fanout", 0)),
            "rows": int(args.get("rows", 0)),
            "slowest_shard": int(args.get("slowest_shard", 0)),
            "slowest_ns": float(args.get("slowest_ns", 0)),
        })
    if not by_kind:
        return
    print()
    print("scatter-gather attribution (router track):")
    hdr = "%-16s %6s %7s %10s  %21s %21s %10s  %-14s" % (
        "query", "count", "fanout", "rows", "gather p50/p99",
        "slowest-shard p50/p99", "merge ovh", "slowest shard")
    print(hdr)
    print("-" * len(hdr))
    for kind in sorted(by_kind):
        group = by_kind[kind]
        durs = sorted(g["dur"] for g in group)
        slowest = sorted(g["slowest_ns"] for g in group)
        # Merge overhead: the part of the gather not explained by waiting
        # on the slowest shard, averaged across queries of this kind.
        ovh = [1.0 - g["slowest_ns"] / g["dur"]
               for g in group if g["dur"] > 0]
        mode_shard, mode_n = Counter(
            g["slowest_shard"] for g in group).most_common(1)[0]
        print("%-16s %6d %7s %10d  %10s/%-10s %10s/%-10s %9.1f%%  %-14s" % (
            kind, len(group),
            "/".join(str(f) for f in sorted({g["fanout"] for g in group})),
            sum(g["rows"] for g in group),
            fmt_ns(percentile(durs, 50)), fmt_ns(percentile(durs, 99)),
            fmt_ns(percentile(slowest, 50)), fmt_ns(percentile(slowest, 99)),
            100.0 * sum(ovh) / len(ovh) if ovh else 0.0,
            "shard%d (%d/%d)" % (mode_shard, mode_n, len(group))))


def print_telemetry(path):
    data = load_json(path, "telemetry")
    names = data.get("names", [])
    samples = data.get("samples", [])
    series = defaultdict(list)
    for s in samples:
        for name_id, val in s.get("v", []):
            if 0 <= name_id < len(names):
                series[names[name_id]].append(val)
    print()
    print("telemetry: %d samples at %s cadence, %d gauges%s" % (
        len(samples), fmt_ns(data.get("interval_ns", 0)), len(series),
        ", %d dropped" % data["dropped"] if data.get("dropped") else ""))
    if not series:
        return series
    print("%-36s %8s %12s %12s %12s %12s" % (
        "gauge", "samples", "min", "mean", "max", "last"))
    for name in sorted(series):
        vals = series[name]
        print("%-36s %8d %12d %12.1f %12d %12d" % (
            name, len(vals), min(vals), sum(vals) / len(vals), max(vals),
            vals[-1]))
    return series


# Activity classes of the device's ResourceMeter gauges
# ("util.<resource>.<class>", permille of the sampling window against
# "util.<resource>.capacity" = capacity x 1000).
ACTIVITY_CLASSES = (
    "host_read", "host_write", "compact", "recompact", "pushdown",
    "dispatch", "other")


def print_bottlenecks(series):
    """Names the saturated resource from per-class utilization.

    For every metered resource (soc cores, dispatch loop, NAND channels,
    PCIe directions) the table shows mean/peak utilization and which
    activity class dominates its busy time.  The ``bottleneck:`` line
    names the hottest resource and its dominant class; the commands
    paying for it show the matching layer in their ledgers.
    """
    resources = {}
    for name, vals in series.items():
        if not name.startswith("util.") or not vals:
            continue
        rest = name[len("util."):]
        if rest.endswith(".capacity"):
            res = rest[:-len(".capacity")]
            resources.setdefault(res, {})["capacity"] = vals
        else:
            res, _, cls = rest.rpartition(".")
            if res and cls in ACTIVITY_CLASSES:
                resources.setdefault(res, {}).setdefault(
                    "classes", {})[cls] = vals
    rows = []
    for res, info in sorted(resources.items()):
        classes = info.get("classes", {})
        if not classes:
            continue
        cap = (info.get("capacity") or [1000])[-1] or 1000
        n = max(len(v) for v in classes.values())
        totals = [sum(v[i] for v in classes.values() if i < len(v))
                  for i in range(n)]
        # The meter books each piece of work into every window it spans,
        # so a window's total never exceeds the capacity.
        mean_util = sum(totals) / n / cap
        sat_share = sum(1 for t in totals if t >= 0.9 * cap) / n
        mean_total = sum(totals) / n
        dom = max(classes,
                  key=lambda c: sum(classes[c]) / len(classes[c]))
        dom_share = (sum(classes[dom]) / len(classes[dom]) / mean_total
                     if mean_total else 0.0)
        rows.append((res, mean_util, sat_share, dom, dom_share))
    if not rows:
        return
    print()
    hdr = "%-12s %10s %11s  %-12s %10s" % (
        "resource", "mean util", "win >= 90%", "top class", "class share")
    print(hdr)
    print("-" * len(hdr))
    for res, mean_util, sat_share, dom, dom_share in rows:
        print("%-12s %9.1f%% %10.1f%%  %-12s %9.1f%%" % (
            res, 100.0 * mean_util, 100.0 * sat_share, dom,
            100.0 * dom_share))

    rows.sort(key=lambda r: r[1], reverse=True)
    res, mean_util, sat_share, dom, dom_share = rows[0]
    verdict = "saturated" if sat_share >= 0.05 or mean_util >= 0.9 \
        else "hot" if mean_util >= 0.3 else "moderate"
    print()
    print("bottleneck: %s (class %s, %.1f%% of its load), "
          "mean util %.1f%%, %.1f%% of windows >= 90%% [%s]" % (
              res, dom, 100.0 * dom_share, 100.0 * mean_util,
              100.0 * sat_share, verdict))
    return res


def print_ledger(report):
    """One opcode x layer p50/p99 table from a report's ledger series."""
    rows = defaultdict(dict)  # "<prefix>cmd.<opcode>" -> layer -> summary
    for name, h in report.get("histograms", {}).items():
        m = LEDGER_RE.match(name)
        if m and h.get("count"):
            rows["%s.%s" % (m.group(1), m.group(2))][m.group(3)] = h
    if not rows:
        return rows
    print()
    print("latency ledger (p50/p99 per layer; the layers sum to the "
          "round trip):")
    for cmd in sorted(rows):
        layers = rows[cmd]
        count = max(h["count"] for h in layers.values())
        print("%s (%d cmds)" % (cmd, count))
        for layer in LAYERS + ("overlapped",):
            h = layers.get(layer)
            if h and h.get("max"):
                print("  %-14s %10s/%-10s mean %10s" % (
                    layer, fmt_ns(h["p50"]), fmt_ns(h["p99"]),
                    fmt_ns(h["mean"])))
    return rows


def main(argv):
    trace_path = None
    telemetry_path = None
    report_path = None
    strict = False
    required_ops = []
    required_series = []
    required_bottleneck = None
    for arg in argv[1:]:
        if arg.startswith("--report="):
            report_path = arg.split("=", 1)[1]
        elif arg == "--strict-flows":
            strict = True
        elif arg.startswith("--require-opcode="):
            required_ops.append(arg.split("=", 1)[1])
        elif arg.startswith("--require-series="):
            required_series.append(arg.split("=", 1)[1])
        elif arg.startswith("--require-bottleneck="):
            required_bottleneck = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            die("unknown flag %s\n%s" % (arg, USAGE))
        elif trace_path is None:
            trace_path = arg
        elif telemetry_path is None:
            telemetry_path = arg
        else:
            die(USAGE)
    if trace_path is None and report_path is None:
        die(USAGE)
    if (required_ops or required_series) and report_path is None:
        die("--require-opcode/--require-series read the --report")

    if trace_path is not None:
        data = load_json(trace_path, "trace")
        events = data.get("traceEvents")
        if not isinstance(events, list):
            die("%s: no traceEvents array" % trace_path)
        dropped = int(data.get("otherData", {}).get("dropped_events", 0))
        tracks = track_map(events)
        flow_groups, bad_flows = check_flows(events, strict, dropped)
        print("trace: %s (%d events, %d dropped, %d flow groups%s)" % (
            trace_path, len(events), dropped, flow_groups,
            ", %d BAD" % bad_flows if bad_flows else ""))
        print_fold_breakdown(events, tracks)
        print_scatter_breakdown(events, tracks)

    status = 0
    if report_path is not None:
        report = load_json(report_path, "report")
        print("report: %s" % report_path)
        rows = print_ledger(report)
        for op in required_ops:
            if not any(cmd.endswith("cmd." + op) for cmd in rows):
                sys.stderr.write(
                    "analyze_trace: required opcode '%s' has no ledger "
                    "samples in %s\n" % (op, report_path))
                status = 1
        histograms = report.get("histograms", {})
        for name in required_series:
            if not histograms.get(name, {}).get("count"):
                sys.stderr.write(
                    "analyze_trace: required series '%s' has no samples "
                    "in %s\n" % (name, report_path))
                status = 1

    bottleneck = None
    if telemetry_path:
        series = print_telemetry(telemetry_path)
        bottleneck = print_bottlenecks(series)
    if required_bottleneck is not None and bottleneck != required_bottleneck:
        sys.stderr.write(
            "analyze_trace: required bottleneck '%s' but found '%s'\n"
            % (required_bottleneck, bottleneck))
        status = 1
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # Output piped into head/less and closed early; not an error.
        sys.exit(0)
