// Shard-router scale-out bench (DESIGN.md §15): a FIXED total dataset is
// hash-partitioned over 1 -> 2 -> 4 -> 8 independent KV-CSDs behind the
// host-side ShardedClient, driven by a fixed set of open-loop windowed
// driver streams. Per-device hardware never changes; only the device
// count does, so aggregate throughput should track the fleet size.
//
// What must hold:
//   * aggregate PUT and point-GET throughput is monotonically
//     non-decreasing in shard count, and the widest point achieves at
//     least --min_scaling (default 0.75) of ideal linear scaling over
//     the single-device point;
//   * a crc32c fingerprint over every issued PUT and every GET answer is
//     identical at every sweep point: partitioning changes placement and
//     timing, never contents;
//   * the scatter-gather results are exact: the merged full scan, the
//     merged secondary range, the merged pushdown select and the folded
//     aggregate scalars are all bit-identical across sweep points — a
//     fleet of N devices answers exactly like one device holding the
//     whole dataset.
//
// Flags: --puts=16384 --gets=8192 --drivers=8 --depth=4 --batch=32
//        --get_drivers=64 --get_depth=64 --value_bytes=2048
//        --min_scaling_pct=75 --debug_stats=1 (latency breakdown)
//        --json=PATH --trace=PATH --telemetry=PATH
#include <bit>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/sharded_testbed.h"
#include "harness/tracing.h"
#include "nvme/skey.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

using Rows = router::ShardedKeyspaceHandle::Rows;

// Integer-valued f32 attribute at byte 0 of every value: exact under
// both f32 and the aggregate's double accumulation, so the host-side
// shard fold is bit-identical to a single device's scan-order fold.
float EnergyFor(std::uint64_t id) {
  return static_cast<float>((id * 7 + 3) % 1000);
}

std::string ValueFor(std::uint64_t id, std::uint64_t bytes) {
  std::string v(std::max<std::uint64_t>(bytes, 4), '\0');
  const std::uint32_t raw = std::bit_cast<std::uint32_t>(EnergyFor(id));
  v[0] = static_cast<char>(raw & 0xff);
  v[1] = static_cast<char>((raw >> 8) & 0xff);
  v[2] = static_cast<char>((raw >> 16) & 0xff);
  v[3] = static_cast<char>((raw >> 24) & 0xff);
  for (std::size_t i = 4; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (id + i * 7) % 26);
  }
  return v;
}

struct DriverResult {
  std::uint32_t put_crc = 0;
  std::uint32_t get_crc = 0;
  Tick put_end = 0;
  Tick get_end = 0;
  bool ok = false;
};

// Open-loop batched PUT stream through the router: driver d owns keys
// d, d+D, d+2D, ... — a decomposition independent of shard count, so
// the issued byte stream (and its fingerprint) is identical at every
// sweep point. Each batch is shard-grouped by the router and rides one
// doorbell per shard; `depth` bounds the in-flight batches so the
// per-shard admission windows stay the real backpressure.
sim::Task<void> DriverPuts(sim::Simulation* sim,
                           router::ShardedKeyspaceHandle ks,
                           std::uint32_t driver, std::uint32_t drivers,
                           std::uint64_t puts, std::uint64_t value_bytes,
                           std::uint64_t depth, std::uint64_t batch,
                           DriverResult* out) {
  std::deque<client::Future<Status>> window;
  const std::uint64_t window_cap = depth * batch;
  std::vector<std::pair<std::string, std::string>> pending;
  for (std::uint64_t i = driver; i < puts; i += drivers) {
    std::string key = MakeFixedKey(i);
    std::string value = ValueFor(i, value_bytes);
    out->put_crc = crc32c::Extend(out->put_crc, key.data(), key.size());
    out->put_crc = crc32c::Extend(out->put_crc, value.data(), value.size());
    pending.emplace_back(std::move(key), std::move(value));
    if (pending.size() < batch && i + drivers < puts) continue;
    while (window.size() >= window_cap) {
      Status s = co_await window.front().Await();
      if (!s.ok()) {
        std::fprintf(stderr, "driver %u put failed: %s\n", driver,
                     s.message().c_str());
        co_return;
      }
      window.pop_front();
    }
    auto futures = co_await ks.PutBatchAsync(std::move(pending));
    pending.clear();
    for (auto& f : futures) window.push_back(std::move(f));
  }
  while (!window.empty()) {
    Status s = co_await window.front().Await();
    if (!s.ok()) {
      std::fprintf(stderr, "driver %u put drain failed: %s\n", driver,
                   s.message().c_str());
      co_return;
    }
    window.pop_front();
  }
  out->put_end = sim->Now();
  out->ok = true;
}

// Seal the fleet: fsync every shard, then governor-staggered compaction
// and the secondary index build (all untimed).
sim::Task<void> Seal(router::ShardedKeyspaceHandle ks, DriverResult* out) {
  out->ok = false;
  Status s = co_await ks.Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "seal sync failed: %s\n", s.message().c_str());
    co_return;
  }
  s = co_await ks.Compact();
  if (!s.ok()) {
    std::fprintf(stderr, "seal compact failed: %s\n", s.message().c_str());
    co_return;
  }
  s = co_await ks.CreateSecondaryIndexF32("energy", 0);
  if (!s.ok()) {
    std::fprintf(stderr, "seal index failed: %s\n", s.message().c_str());
    co_return;
  }
  out->ok = true;
}

// Open-loop windowed point-GET stream; answers are awaited in issue
// order so the fingerprint is deterministic.
sim::Task<void> DriverGets(sim::Simulation* sim,
                           router::ShardedKeyspaceHandle ks,
                           std::uint32_t driver, std::uint32_t drivers,
                           std::uint64_t puts, std::uint64_t gets,
                           std::uint64_t depth, DriverResult* out) {
  out->ok = false;
  std::uint64_t stride = 4093;
  while (puts % stride == 0) ++stride;
  std::deque<client::Future<Result<std::string>>> window;
  for (std::uint64_t i = driver; i < gets; i += drivers) {
    if (window.size() >= depth) {
      auto got = co_await window.front().Await();
      window.pop_front();
      if (!got.ok()) co_return;
      out->get_crc = crc32c::Extend(out->get_crc, got->data(), got->size());
    }
    auto get = co_await ks.GetAsync(MakeFixedKey((i * stride) % puts));
    window.push_back(std::move(get));
  }
  while (!window.empty()) {
    auto got = co_await window.front().Await();
    window.pop_front();
    if (!got.ok()) co_return;
    out->get_crc = crc32c::Extend(out->get_crc, got->data(), got->size());
  }
  out->get_end = sim->Now();
  out->ok = true;
}

struct QueryResult {
  std::uint32_t scan_crc = 0;
  std::uint64_t scan_rows = 0;
  std::uint32_t secondary_crc = 0;
  std::uint32_t select_crc = 0;
  std::uint32_t aggregate_crc = 0;
  bool ok = false;
};

std::uint32_t CrcRows(const Rows& rows) {
  std::uint32_t crc = 0;
  for (const auto& kv : rows) {
    crc = crc32c::Extend(crc, kv.first.data(), kv.first.size());
    crc = crc32c::Extend(crc, kv.second.data(), kv.second.size());
  }
  return crc;
}

// Scatter-gather verification pass: full merged scan, merged secondary
// range, merged pushdown select, folded aggregate. Every fingerprint
// must be identical at every sweep point.
sim::Task<void> MergedQueries(router::ShardedKeyspaceHandle ks,
                              std::uint64_t value_bytes, QueryResult* out) {
  const std::string lo;
  const std::string hi(16, '\xff');

  Rows rows;
  Status s = co_await ks.Scan(lo, hi, 0, &rows);
  if (!s.ok()) {
    std::fprintf(stderr, "merged scan failed: %s\n", s.message().c_str());
    co_return;
  }
  out->scan_rows = rows.size();
  out->scan_crc = CrcRows(rows);

  rows.clear();
  s = co_await ks.QuerySecondaryRangeF32("energy", 100.0f, 499.0f, 1000,
                                         &rows);
  if (!s.ok()) {
    std::fprintf(stderr, "merged secondary failed: %s\n",
                 s.message().c_str());
    co_return;
  }
  out->secondary_crc = CrcRows(rows);

  rows.clear();
  client::KeyspaceHandle::SelectOptions opts;
  opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 0, 700.0f);
  opts.proj.enabled = true;
  opts.proj.offset = 0;
  opts.proj.length = static_cast<std::uint32_t>(value_bytes);
  opts.limit = 256;
  s = co_await ks.Select(lo, hi, opts, &rows);
  if (!s.ok()) {
    std::fprintf(stderr, "merged select failed: %s\n", s.message().c_str());
    co_return;
  }
  out->select_crc = CrcRows(rows);

  nvme::AggregateSpec agg;
  agg.func = nvme::AggregateFunc::kSum;
  agg.value_offset = 0;
  agg.value_length = 4;
  agg.type = nvme::SecondaryKeyType::kF32;
  Result<nvme::AggregateResult> r = co_await ks.Aggregate(lo, hi, agg);
  if (!r.ok()) {
    std::fprintf(stderr, "folded aggregate failed: %s\n",
                 r.status().message().c_str());
    co_return;
  }
  const nvme::AggregateResult& a = r.value();
  std::uint32_t crc = 0;
  crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&a.rows),
                       sizeof(a.rows));
  crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&a.min),
                       sizeof(a.min));
  crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&a.max),
                       sizeof(a.max));
  crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&a.sum),
                       sizeof(a.sum));
  out->aggregate_crc = crc;
  out->ok = true;
}

struct PointResult {
  double put_per_sec = 0;
  double get_per_sec = 0;
  std::uint32_t fingerprint = 0;
  std::uint32_t query_fingerprint = 0;
  bool ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t puts = flags.GetUint("puts", 16384);
  const std::uint64_t gets = flags.GetUint("gets", 8192);
  const std::uint32_t drivers =
      static_cast<std::uint32_t>(flags.GetUint("drivers", 8));
  const std::uint64_t depth = flags.GetUint("depth", 4);
  const std::uint64_t batch = flags.GetUint("batch", 32);
  // Point GETs have no batch API, so each stream pays the per-command
  // submission cost serially; many more GET streams than PUT streams are
  // needed before the devices (not host submission) set the ceiling.
  const std::uint32_t get_drivers =
      static_cast<std::uint32_t>(flags.GetUint("get_drivers", 64));
  const std::uint64_t get_depth = flags.GetUint("get_depth", 64);
  // Values default to 2 KiB so even the 8-shard slice of the dataset
  // stripes across every NAND channel; with tiny values the whole
  // dataset fits in a couple of stripe units and point GETs serialize
  // on one or two channels per device regardless of fleet size.
  const std::uint64_t value_bytes = flags.GetUint("value_bytes", 2048);
  const std::uint64_t min_scaling_pct = flags.GetUint("min_scaling_pct", 75);
  if (puts == 0 || gets == 0 || drivers == 0 || depth == 0 || batch == 0 ||
      get_drivers == 0 || get_depth == 0) {
    std::fprintf(stderr,
                 "--puts, --gets, --drivers, --depth, --batch, "
                 "--get_drivers and --get_depth must be > 0\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("shard_scaling", flags);

  std::printf(
      "Shard router scale-out: %s PUTs (batch %s, %u streams) + %s point "
      "GETs (%u streams) total, devices 1 -> 8\n",
      FormatCount(puts).c_str(), FormatCount(batch).c_str(), drivers,
      FormatCount(gets).c_str(), get_drivers);
  Table table("Aggregate throughput vs device count (fixed total dataset)",
              {"shards", "PUT keys/s", "GET keys/s", "speedup(PUT)",
               "speedup(GET)", "fingerprint", "queries"});

  const std::uint32_t shard_counts[] = {1, 2, 4, 8};
  std::vector<PointResult> points;
  bool all_ok = true;

  for (std::uint32_t shards : shard_counts) {
    ShardedTestbedConfig config;
    config.num_shards = shards;
    config.shard.queues.sq_depth_cap =
        static_cast<std::uint32_t>(drivers * depth * batch);

    ShardedTestbed bed(config);
    router::ShardedKeyspaceHandle ks;
    bed.sim().Spawn([](router::ShardedClient* db,
                       router::ShardedKeyspaceHandle* out)
                        -> sim::Task<void> {
      auto r = co_await db->CreateKeyspace("particles");
      if (r.ok()) *out = r.value();
    }(&bed.router(), &ks));
    bed.sim().Run();

    PointResult point;
    bool point_ok = ks.valid();
    std::vector<DriverResult> results(
        std::max<std::size_t>(drivers, get_drivers));

    // Phase 1 (timed): concurrent open-loop PUT streams.
    if (point_ok) {
      const Tick t0 = bed.sim().Now();
      for (std::uint32_t d = 0; d < drivers; ++d) {
        bed.sim().Spawn(DriverPuts(&bed.sim(), ks, d, drivers, puts,
                                   value_bytes, depth, batch, &results[d]));
      }
      bed.sim().Run();
      Tick put_end = t0;
      for (std::uint32_t d = 0; d < drivers; ++d) {
        const DriverResult& r = results[d];
        if (!r.ok) point_ok = false;
        if (r.put_end > put_end) put_end = r.put_end;
      }
      if (point_ok && put_end > t0) {
        point.put_per_sec = static_cast<double>(puts) * 1e9 /
                            static_cast<double>(put_end - t0);
      }
    }

    // Seal: sync + staggered compaction + index build (untimed).
    if (point_ok) {
      bed.sim().Spawn(Seal(ks, &results[0]));
      bed.sim().Run();
      if (!results[0].ok) point_ok = false;
    }

    // Phase 2 (timed): concurrent open-loop point-GET streams.
    if (point_ok) {
      const Tick t0 = bed.sim().Now();
      for (std::uint32_t d = 0; d < get_drivers; ++d) {
        bed.sim().Spawn(DriverGets(&bed.sim(), ks, d, get_drivers, puts,
                                   gets, get_depth, &results[d]));
      }
      bed.sim().Run();
      Tick get_end = t0;
      for (std::uint32_t d = 0; d < get_drivers; ++d) {
        const DriverResult& r = results[d];
        if (!r.ok) point_ok = false;
        if (r.get_end > get_end) get_end = r.get_end;
      }
      if (point_ok && get_end > t0) {
        point.get_per_sec = static_cast<double>(gets) * 1e9 /
                            static_cast<double>(get_end - t0);
      }
    }

    if (flags.GetUint("debug_stats", 0) != 0) {
      for (const auto& [name, h] : bed.sim().stats().histograms()) {
        if (name.find("get_ns") == std::string::npos &&
            name.find("queue_wait") == std::string::npos &&
            name.find("exec_ns") == std::string::npos) {
          continue;
        }
        const auto s = h.Summary();
        std::printf("  [debug] %-46s count=%-8llu mean=%-10.0f p99=%.0f\n",
                    name.c_str(), static_cast<unsigned long long>(s.count),
                    s.mean, s.p99);
      }
    }

    // Phase 3 (untimed): scatter-gather exactness.
    QueryResult queries;
    if (point_ok) {
      bed.sim().Spawn(MergedQueries(ks, value_bytes, &queries));
      bed.sim().Run();
      if (!queries.ok || queries.scan_rows != puts) {
        std::fprintf(stderr,
                     "shards=%u: merged scan returned %llu rows, want "
                     "%llu\n",
                     shards,
                     static_cast<unsigned long long>(queries.scan_rows),
                     static_cast<unsigned long long>(puts));
        point_ok = false;
      }
    }

    // Fingerprints: driver-ordered PUT/GET byte streams, then the four
    // merged query results.
    std::uint32_t crc = 0;
    for (const DriverResult& r : results) {
      crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&r.put_crc),
                           sizeof(r.put_crc));
      crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&r.get_crc),
                           sizeof(r.get_crc));
    }
    point.fingerprint = crc;
    crc = 0;
    crc = crc32c::Extend(crc,
                         reinterpret_cast<const char*>(&queries.scan_crc),
                         sizeof(queries.scan_crc));
    crc = crc32c::Extend(
        crc, reinterpret_cast<const char*>(&queries.secondary_crc),
        sizeof(queries.secondary_crc));
    crc = crc32c::Extend(crc,
                         reinterpret_cast<const char*>(&queries.select_crc),
                         sizeof(queries.select_crc));
    crc = crc32c::Extend(
        crc, reinterpret_cast<const char*>(&queries.aggregate_crc),
        sizeof(queries.aggregate_crc));
    point.query_fingerprint = crc;
    point.ok = point_ok;
    if (!point_ok) {
      std::fprintf(stderr, "point shards=%u: driver failed\n", shards);
      all_ok = false;
    }

    const std::string tag = "n" + std::to_string(shards);
    report.AddMetric("csd.shard." + tag + ".put_keys_per_sec",
                     point.put_per_sec);
    report.AddMetric("csd.shard." + tag + ".get_keys_per_sec",
                     point.get_per_sec);
    report.AddMetric("csd.shard." + tag + ".fingerprint",
                     static_cast<std::uint64_t>(point.fingerprint));
    report.AddMetric("csd.shard." + tag + ".query_fingerprint",
                     static_cast<std::uint64_t>(point.query_fingerprint));
    if (shards == shard_counts[std::size(shard_counts) - 1]) {
      report.AddStats(bed.sim().stats(), "router.");
    }

    const double put_speedup =
        points.empty() || points.front().put_per_sec <= 0
            ? 1.0
            : point.put_per_sec / points.front().put_per_sec;
    const double get_speedup =
        points.empty() || points.front().get_per_sec <= 0
            ? 1.0
            : point.get_per_sec / points.front().get_per_sec;
    char fp[16], qfp[16];
    std::snprintf(fp, sizeof(fp), "%08x", point.fingerprint);
    std::snprintf(qfp, sizeof(qfp), "%08x", point.query_fingerprint);
    char put_x[16], get_x[16];
    std::snprintf(put_x, sizeof(put_x), "%.2fx", put_speedup);
    std::snprintf(get_x, sizeof(get_x), "%.2fx", get_speedup);
    table.AddRow(
        {std::to_string(shards),
         FormatCount(static_cast<std::uint64_t>(point.put_per_sec)),
         FormatCount(static_cast<std::uint64_t>(point.get_per_sec)), put_x,
         get_x, fp, qfp});
    points.push_back(point);
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();

  // Gates: identical contents, monotone throughput (2% slack), and the
  // widest point must reach min_scaling of ideal linear scaling.
  bool identical = true;
  bool put_monotone = true;
  bool get_monotone = true;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].fingerprint != points[0].fingerprint ||
        points[i].query_fingerprint != points[0].query_fingerprint) {
      identical = false;
    }
    if (points[i].put_per_sec < points[i - 1].put_per_sec * 0.98) {
      put_monotone = false;
    }
    if (points[i].get_per_sec < points[i - 1].get_per_sec * 0.98) {
      get_monotone = false;
    }
  }
  const double n = static_cast<double>(
      shard_counts[std::size(shard_counts) - 1]);
  const double need =
      static_cast<double>(min_scaling_pct) / 100.0 * n;
  const double put_speedup =
      points.front().put_per_sec > 0
          ? points.back().put_per_sec / points.front().put_per_sec
          : 0.0;
  const double get_speedup =
      points.front().get_per_sec > 0
          ? points.back().get_per_sec / points.front().get_per_sec
          : 0.0;
  const bool put_scales = put_speedup >= need;
  const bool get_scales = get_speedup >= need;

  std::printf("\naggregate PUT throughput monotone in shard count: %s\n",
              put_monotone ? "yes" : "NO (regression!)");
  std::printf("aggregate GET throughput monotone in shard count: %s\n",
              get_monotone ? "yes" : "NO (regression!)");
  std::printf(
      "8 shards vs 1 (need >= %.2fx): PUT %.2fx %s, GET %.2fx %s\n", need,
      put_speedup, put_scales ? "ok" : "TOO FLAT (regression!)",
      get_speedup, get_scales ? "ok" : "TOO FLAT (regression!)");
  std::printf("contents identical across sweep points: %s\n",
              identical ? "yes" : "NO (determinism bug!)");
  return (all_ok && identical && put_monotone && get_monotone &&
          put_scales && get_scales)
             ? 0
             : 1;
}
