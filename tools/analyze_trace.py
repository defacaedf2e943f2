#!/usr/bin/env python3
"""Latency-breakdown analyzer for KV-CSD Chrome traces and telemetry.

Consumes the ``--trace=`` Chrome trace_event JSON emitted by the benches
(and optionally the ``--telemetry=`` time-series dump) and prints:

  * a per-opcode critical-path breakdown: how much of each command's
    round trip was spent waiting in the NVMe submission queue vs
    executing on the device vs in completion delivery, with p50/p99,
  * a per-submission-queue queue-wait breakdown (the ``queue_wait``
    span carries the SQ id in ``args.q``), exposing arbitration skew
    between queues in multi-SQ runs,
  * for sharded (multi-device) traces, where every device-side track is
    prefixed ``shard<i>.``: a per-shard command breakdown (routing skew,
    per-shard queue-wait/exec) and a scatter-gather attribution table
    built from the router track's ``scan``/``secondary_scan``/``select``/
    ``aggregate`` spans (fan-out, merged rows, slowest shard, and how
    much of the gather was merge overhead vs waiting on that shard),
  * a pushdown attribution table: per scan source (primary, a named
    secondary index, or one the device's planner chose), bytes the
    device scanned vs bytes it returned to the host,
    and the resulting reduction factor (``select``/``aggregate`` spans
    on the ``query`` track),
  * a fold attribution table: how each incremental re-compaction
    (``recompact`` span on the ``compaction`` track) splits into its
    ``recompact.values`` / ``.pidx`` / ``.sidx`` / ``.commit`` /
    ``.release`` child spans,
  * the top-N slowest individual commands with their stage split,
  * a summary of every telemetry gauge (samples / min / mean / max / last).

It also validates causal flow events: every ``cat:"flow"`` group keyed
by (name, id) must contain exactly one 's' (begin) and one 'f' (end)
with non-decreasing timestamps — a dangling or reversed flow means the
instrumentation lost track of a command. Violations are warnings by
default and hard failures under ``--strict-flows`` (used in CI).

Usage:
  tools/analyze_trace.py TRACE.json [TELEMETRY.json]
      [--top=N] [--strict-flows] [--require-opcode=NAME ...]
      [--require-bottleneck=RESOURCE]

``--require-opcode=NAME`` exits non-zero unless at least one command of
that opcode completed all stages — CI uses it to assert the trace
actually exercised the paths it claims to cover.

``--require-bottleneck=RESOURCE`` exits non-zero unless the bottleneck
section (which needs TELEMETRY.json with util.* gauges) names that
resource as the most-utilized one — CI uses it to pin known saturation
points, e.g. the single-core dispatch loop under multi-tenant load.

Stage model (tracks are named via thread_name metadata):
  client   opcode span       = full client-observed round trip
  nvme.sq  "queue_wait" span = SQ enqueue -> device doorbell pop
  device   opcode span       = command execution on the SoC
  nvme.cq  "complete" span   = completion DMA back to the host

All spans carry an ``args.cmd_id`` that joins them into one command.
Timestamps are microseconds with nanosecond fractions; everything is
reported in nanoseconds.
"""

import json
import math
import re
import sys
from collections import Counter, defaultdict

USAGE = (
    "usage: analyze_trace.py TRACE.json [TELEMETRY.json] "
    "[--top=N] [--strict-flows] [--require-opcode=NAME ...] "
    "[--require-bottleneck=RESOURCE]"
)

# Stages joined per cmd_id, in pipeline order. The client span is the
# envelope; the three inner stages are disjoint segments of it.
STAGES = ("queue_wait", "exec", "complete")


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


def check_flows(events, strict):
    """Validate flow-event pairing; returns the number of violations."""
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


def collect_commands(events, tracks):
    """cmd_id -> {opcode, total, queue_wait, exec, complete} in ns."""
    cmds = defaultdict(dict)
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        cmd_id = args.get("cmd_id")
        if cmd_id is None:
            continue
        shard, track = split_track(tracks.get(e.get("tid"), ""))
        dur_ns = float(e.get("dur", 0)) * 1000.0
        c = cmds[cmd_id]
        if shard is not None:
            c["shard"] = shard
        if track == "client":
            c["opcode"] = e.get("name", "?")
            c["total"] = dur_ns
            c["ts"] = float(e.get("ts", 0))
        elif track == "nvme.sq" and e.get("name") == "queue_wait":
            c["queue_wait"] = dur_ns
            if "q" in args:
                c["queue_id"] = str(args["q"]) if shard is None \
                    else "shard%d.sq%s" % (shard, args["q"])
        elif track == "device":
            c["exec"] = dur_ns
            c.setdefault("opcode", e.get("name", "?"))
        elif track == "nvme.cq" and e.get("name") == "complete":
            c["complete"] = dur_ns
    return cmds


def print_breakdown(cmds):
    by_op = defaultdict(list)
    for cmd_id, c in cmds.items():
        by_op[c.get("opcode", "?")].append(c)

    hdr = "%-16s %6s  %21s %21s %21s %21s" % (
        "opcode", "count", "queue_wait p50/p99", "exec p50/p99",
        "complete p50/p99", "total p50/p99")
    print(hdr)
    print("-" * len(hdr))
    for op in sorted(by_op):
        group = by_op[op]
        cols = ["%-16s %6d" % (op, len(group))]
        for stage in STAGES + ("total",):
            vals = sorted(c[stage] for c in group if stage in c)
            cols.append("%10s/%-10s" % (fmt_ns(percentile(vals, 50)),
                                        fmt_ns(percentile(vals, 99))))
        print("  ".join(cols))


# The delta-log buckets "point_lookup" spans tag via args.src, and their
# rollup: a lookup answered by the delta index never touches the sorted
# run's index blocks, so its latency profile is the delta/merge-read
# overhead the YCSB mixes are designed to expose.
DELTA_SRCS = ("delta", "delta_tombstone")
RUN_SRCS = ("run", "bloom_negative", "miss")


def print_query_breakdown(events, tracks):
    """Point-lookup latency split by answer source (delta vs run)."""
    by_src = defaultdict(list)
    for e in events:
        if e.get("ph") != "X" or e.get("name") != "point_lookup":
            continue
        if split_track(tracks.get(e.get("tid"), ""))[1] != "query":
            continue
        src = e.get("args", {}).get("src", "?")
        by_src[src].append(float(e.get("dur", 0)) * 1000.0)
    if not by_src:
        return
    print()
    hdr = "%-20s %8s  %21s %12s %7s" % (
        "lookup source", "count", "latency p50/p99", "max", "share")
    print(hdr)
    print("-" * len(hdr))
    total_count = sum(len(v) for v in by_src.values())

    def row(label, vals):
        vals = sorted(vals)
        print("%-20s %8d  %10s/%-10s %12s %6.1f%%" % (
            label, len(vals),
            fmt_ns(percentile(vals, 50)), fmt_ns(percentile(vals, 99)),
            fmt_ns(vals[-1] if vals else 0),
            100.0 * len(vals) / total_count if total_count else 0.0))

    for src in sorted(by_src):
        row(src, by_src[src])
    delta_vals = [v for s in DELTA_SRCS for v in by_src.get(s, [])]
    run_vals = [v for s in RUN_SRCS for v in by_src.get(s, [])]
    if delta_vals and run_vals:
        print("-" * len(hdr))
        row("delta-served", delta_vals)
        row("run-served", run_vals)


def print_pushdown_breakdown(events, tracks):
    """Bytes-scanned vs bytes-returned attribution for pushdown scans.

    The device emits one ``select`` / ``aggregate`` span per pushdown
    command on the ``query`` track, tagged with the scan source
    (``primary``, ``sidx`` for a host-named index, ``sidx_planned`` when
    the device's scan planner chose one) and the byte counts on both
    sides of the predicate.  The covered column counts the commands that
    read only the index attribute and so were answered from the SIDX
    entries with no value gather; bytes_scanned is what the filter read.
    The reduction column is the pushdown win: how many bytes the device
    read per byte it shipped to the host.
    """
    groups = defaultdict(lambda: {
        "count": 0, "covered": 0, "scanned": 0, "returned": 0,
        "rows_scanned": 0, "rows_matched": 0,
    })
    for e in events:
        if e.get("ph") != "X" or e.get("name") not in ("select",
                                                       "aggregate"):
            continue
        if split_track(tracks.get(e.get("tid"), ""))[1] != "query":
            continue
        args = e.get("args", {})
        g = groups[(e["name"], args.get("src", "?"))]
        g["count"] += 1
        g["covered"] += int(args.get("covered", 0))
        g["scanned"] += int(args.get("bytes_scanned", 0))
        g["returned"] += int(args.get("bytes_returned", 0))
        g["rows_scanned"] += int(args.get("rows_scanned", 0))
        g["rows_matched"] += int(args.get("rows_matched", 0))
    if not groups:
        return
    print()
    hdr = "%-22s %6s %7s %12s %12s %14s %14s %10s" % (
        "pushdown", "count", "covered", "rows_scanned", "rows_matched",
        "bytes_scanned", "bytes_returned", "reduction")
    print(hdr)
    print("-" * len(hdr))
    totals = {"scanned": 0, "returned": 0}
    for (op, src), g in sorted(groups.items()):
        totals["scanned"] += g["scanned"]
        totals["returned"] += g["returned"]
        print("%-22s %6d %7d %12d %12d %14d %14d %9.1fx" % (
            "%s/%s" % (op, src), g["count"], g["covered"], g["rows_scanned"],
            g["rows_matched"], g["scanned"], g["returned"],
            g["scanned"] / g["returned"] if g["returned"] else 0.0))
    print("-" * len(hdr))
    print("%-22s %6s %7s %12s %12s %14d %14d %9.1fx" % (
        "total", "", "", "", "", totals["scanned"], totals["returned"],
        totals["scanned"] / totals["returned"]
        if totals["returned"] else 0.0))


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


def print_queue_breakdown(cmds):
    """Per-SQ queue-wait stats; silent for traces without queue ids."""
    by_q = defaultdict(list)
    for c in cmds.values():
        if "queue_wait" in c and "queue_id" in c:
            by_q[c["queue_id"]].append(c["queue_wait"])
    if not by_q:
        return
    grand_total = sum(sum(vals) for vals in by_q.values())
    print()
    hdr = "%-14s %8s  %21s %12s %12s %7s" % (
        "queue", "count", "queue_wait p50/p99", "max", "total", "share")
    print(hdr)
    print("-" * len(hdr))
    for qid in sorted(by_q, key=lambda q: (len(q), q)):
        vals = sorted(by_q[qid])
        total = sum(vals)
        print("%-14s %8d  %10s/%-10s %12s %12s %6.1f%%" % (
            qid if "." in qid else "sq%s" % qid, len(vals),
            fmt_ns(percentile(vals, 50)), fmt_ns(percentile(vals, 99)),
            fmt_ns(vals[-1]), fmt_ns(total),
            100.0 * total / grand_total if grand_total else 0.0))


def print_shard_breakdown(cmds):
    """Per-shard command split for sharded (multi-device) traces.

    Joins each command's device-side spans to the shard that executed
    them, exposing routing skew (share) and any per-shard latency outlier
    (one shard compacting while the others serve shows up as an exec/p99
    spike on that row alone). Silent for single-device traces.
    """
    by_shard = defaultdict(list)
    for c in cmds.values():
        if "shard" in c:
            by_shard[c["shard"]].append(c)
    if not by_shard:
        return
    total_count = sum(len(v) for v in by_shard.values())
    print()
    print("per-shard breakdown:")
    hdr = "%-8s %8s  %21s %21s %21s %7s" % (
        "shard", "count", "queue_wait p50/p99", "exec p50/p99",
        "total p50/p99", "share")
    print(hdr)
    print("-" * len(hdr))
    for shard in sorted(by_shard):
        group = by_shard[shard]
        cols = ["%-8s %8d" % ("shard%d" % shard, len(group))]
        for stage in ("queue_wait", "exec", "total"):
            vals = sorted(c[stage] for c in group if stage in c)
            cols.append("%10s/%-10s" % (fmt_ns(percentile(vals, 50)),
                                        fmt_ns(percentile(vals, 99))))
        cols.append("%6.1f%%" % (100.0 * len(group) / total_count))
        print("  ".join(cols))


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


def print_slowest(cmds, top_n):
    ranked = sorted(
        ((cid, c) for cid, c in cmds.items() if "total" in c),
        key=lambda kv: kv[1]["total"], reverse=True)[:top_n]
    if not ranked:
        return
    print()
    print("top %d slowest commands:" % len(ranked))
    print("%10s %-16s %12s %12s %12s %12s %14s" % (
        "cmd_id", "opcode", "queue_wait", "exec", "complete", "total",
        "submit_ts_us"))
    for cid, c in ranked:
        print("%10s %-16s %12s %12s %12s %12s %14.3f" % (
            cid, c.get("opcode", "?"),
            fmt_ns(c.get("queue_wait", 0)), fmt_ns(c.get("exec", 0)),
            fmt_ns(c.get("complete", 0)), fmt_ns(c["total"]),
            c.get("ts", 0.0)))


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

# Which wire opcodes an activity class serves, for the latency join. The
# dispatch class is the device's serial command pop-loop: every opcode
# rides it, so its join lists the opcodes with the worst queue_wait.
CLASS_OPCODES = {
    "host_read": ("kv_retrieve", "query_primary_range",
                  "query_secondary_range", "keyspace_stat"),
    "host_write": ("kv_store", "kv_delete", "bulk_store", "sync"),
    "pushdown": ("kv_select", "kv_aggregate"),
    "compact": ("compact", "compact_with_indexes", "compact_wait",
                "secondary_build"),
    "recompact": ("compact",),
}


def print_bottlenecks(series, cmds):
    """Joins per-class utilization against per-opcode latency and names
    the saturated resource.

    For every metered resource (soc cores, dispatch loop, NAND channels,
    PCIe directions) the table shows mean/peak utilization and which
    activity class dominates its busy time.  The ``bottleneck:`` line
    names the hottest resource and its dominant class; the join then
    lists the latency of the opcodes that class serves — if the resource
    is saturated, those are the commands paying for it.
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
        # A window's total can exceed the capacity because work is booked
        # into the window in which it completes; clamp to capacity so one
        # long compaction compute landing in a single window does not
        # dominate the ranking.
        clamped = [min(t, cap) for t in totals]
        mean_util = sum(clamped) / n / cap
        sat_share = sum(1 for c in clamped if c >= 0.9 * cap) / n
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

    # Latency join: the opcodes the dominant class serves. The dispatch
    # loop serializes everything, so its victims are whoever waited
    # longest in the SQ.
    if dom == "dispatch":
        affected = sorted(
            ((op, [c["queue_wait"] for c in group if "queue_wait" in c])
             for op, group in _by_opcode(cmds).items()),
            key=lambda kv: -percentile(sorted(kv[1]), 99))[:5]
        stage = "queue_wait"
    else:
        ops = CLASS_OPCODES.get(dom, ())
        affected = [(op, [c["exec"] for c in group if "exec" in c])
                    for op, group in _by_opcode(cmds).items() if op in ops]
        stage = "exec"
    affected = [(op, vals) for op, vals in affected if vals]
    if affected:
        print("  affected opcodes (%s p50/p99):" % stage)
        for op, vals in affected:
            vals.sort()
            print("    %-20s %10s/%-10s (%d cmds)" % (
                op, fmt_ns(percentile(vals, 50)),
                fmt_ns(percentile(vals, 99)), len(vals)))
    return res


def _by_opcode(cmds):
    by_op = defaultdict(list)
    for c in cmds.values():
        by_op[c.get("opcode", "?")].append(c)
    return by_op


def main(argv):
    trace_path = None
    telemetry_path = None
    top_n = 10
    strict = False
    required = []
    required_bottleneck = None
    for arg in argv[1:]:
        if arg.startswith("--top="):
            top_n = int(arg.split("=", 1)[1])
        elif arg == "--strict-flows":
            strict = True
        elif arg.startswith("--require-opcode="):
            required.append(arg.split("=", 1)[1])
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
    if trace_path is None:
        die(USAGE)

    data = load_json(trace_path, "trace")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        die("%s: no traceEvents array" % trace_path)
    tracks = track_map(events)
    cmds = collect_commands(events, tracks)
    flow_groups, bad_flows = check_flows(events, strict)

    print("trace: %s (%d events, %d commands, %d flow groups%s)" % (
        trace_path, len(events), len(cmds), flow_groups,
        ", %d BAD" % bad_flows if bad_flows else ""))
    print()
    print_breakdown(cmds)
    print_query_breakdown(events, tracks)
    print_pushdown_breakdown(events, tracks)
    print_fold_breakdown(events, tracks)
    print_queue_breakdown(cmds)
    print_shard_breakdown(cmds)
    print_scatter_breakdown(events, tracks)
    print_slowest(cmds, top_n)
    bottleneck = None
    if telemetry_path:
        series = print_telemetry(telemetry_path)
        bottleneck = print_bottlenecks(series, cmds)

    status = 0
    if required_bottleneck is not None and bottleneck != required_bottleneck:
        sys.stderr.write(
            "analyze_trace: required bottleneck '%s' but found '%s'\n"
            % (required_bottleneck, bottleneck))
        status = 1
    for op in required:
        complete = [
            c for c in cmds.values()
            if c.get("opcode") == op and all(s in c for s in STAGES)
        ]
        if not complete:
            sys.stderr.write(
                "analyze_trace: required opcode '%s' has no fully-staged "
                "commands\n" % op)
            status = 1
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # Output piped into head/less and closed early; not an error.
        sys.exit(0)
