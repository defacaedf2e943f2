// YCSB-style mixed workloads over a COMPACTED keyspace (DESIGN.md §12):
// load N keys, compact, then drive the classic mixes against the sorted
// run while updates and point deletes land in the delta log:
//
//   A: 50% read / 45% update /  5% delete   (update heavy)
//   B: 95% read /  4% update /  1% delete   (read mostly)
//   C: 100% read                            (read only)
//   F: 50% read / 45% read-modify-write / 5% delete
//
// Each mix runs at every queue depth in the sweep (open-loop async window,
// bench_multi_tenant style). After the mixed phase the delta is folded
// back into the run via incremental re-compaction, and a full scan is
// compared against a host-side model of the op stream: the driver exits
// non-zero on any mismatch, so the perf gate doubles as a correctness
// gate for merge-read and re-compaction semantics.
//
// What must hold:
//   * every mix at every depth completes with zero failed ops;
//   * the post-fold scan fingerprint equals the host model exactly
//     (last-writer-wins, tombstones suppressed, inserts visible);
//   * mixes with writes trigger at least one incremental re-compaction.
//
// Flags: --keys=8192 --ops=8192 --value_bytes=128 --depths=1,4 --seed=42
//        --json=PATH --trace=PATH --telemetry=PATH
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/keys.h"
#include "common/random.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

struct MixSpec {
  const char* name;
  double read;    // plain point GET
  double update;  // blind overwrite PUT
  double rmw;     // GET then PUT of the same key (YCSB-F)
  double del;     // blind point DELETE
};

constexpr MixSpec kMixes[] = {
    {"A", 0.50, 0.45, 0.00, 0.05},
    {"B", 0.95, 0.04, 0.00, 0.01},
    {"C", 1.00, 0.00, 0.00, 0.00},
    {"F", 0.50, 0.00, 0.45, 0.05},
};

std::string ValueFor(std::uint64_t id, std::uint64_t version,
                     std::uint64_t bytes) {
  std::string v(bytes, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (id * 131 + version * 31 + i * 7) % 26);
  }
  return v;
}

struct PointResult {
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t rmws = 0;
  std::uint64_t deletes = 0;
  std::uint64_t read_hits = 0;
  Tick mixed_start = 0;
  Tick mixed_end = 0;
  std::uint32_t scan_crc = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t recompactions = 0;
  std::uint64_t delta_keys_folded = 0;
  bool ok = false;
};

// The mixed phase: one open-loop stream of `ops` operations drawn from
// the mix, at most `depth` writes outstanding. Reads are awaited inline
// (their answers feed the host model's hit accounting); writes ride the
// async window. The host model applies writes in issue order — a single
// client on a single SQ submits in order and the device assigns delta
// sequence numbers on arrival, so issue order IS commit order.
sim::Task<void> MixedPhase(sim::Simulation* sim, client::KeyspaceHandle ks,
                           const MixSpec& mix, std::uint64_t keys,
                           std::uint64_t ops, std::uint64_t value_bytes,
                           std::uint64_t depth, std::uint64_t seed,
                           std::map<std::uint64_t, std::uint64_t>* model,
                           PointResult* out) {
  Rng rng(seed);
  client::FutureWindow<Status> window(depth);
  // A GET answers a value or NotFound; any other status fails the point.
  auto read = [&](const Result<std::string>& got) {
    if (got.ok()) ++out->read_hits;
    if (got.ok() || got.status().IsNotFound()) return true;
    std::fprintf(stderr, "mix %s read failed: %s\n", mix.name,
                 got.status().ToString().c_str());
    return false;
  };
  bool failed = false;
  out->mixed_start = sim->Now();
  for (std::uint64_t op = 0; op < ops && !failed; ++op) {
    co_await window.Reserve();
    if (!window.status().ok()) break;
    const std::uint64_t id = rng.Uniform(keys);
    const double roll = rng.NextDouble();
    if (roll < mix.read) {
      failed = !read(co_await ks.Get(MakeFixedKey(id)));
      ++out->reads;
    } else if (roll < mix.read + mix.update) {
      const std::uint64_t version = op + 1;
      window.Push(co_await ks.PutAsync(MakeFixedKey(id),
                                       ValueFor(id, version, value_bytes)));
      (*model)[id] = version;
      ++out->updates;
    } else if (roll < mix.read + mix.update + mix.rmw) {
      // Read-modify-write: the read is part of the op's latency.
      failed = !read(co_await ks.Get(MakeFixedKey(id)));
      if (failed) break;
      const std::uint64_t version = op + 1;
      window.Push(co_await ks.PutAsync(MakeFixedKey(id),
                                       ValueFor(id, version, value_bytes)));
      (*model)[id] = version;
      ++out->rmws;
    } else {
      window.Push(co_await ks.DeleteAsync(MakeFixedKey(id)));
      model->erase(id);
      ++out->deletes;
    }
  }
  const bool drained =
      CheckOk(co_await window.Drain(), std::string("mix ") + mix.name);
  if (failed || !drained) co_return;
  Status s = co_await ks.Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "mix %s sync failed: %s\n", mix.name,
                 s.message().c_str());
    co_return;
  }
  out->mixed_end = sim->Now();
  out->ok = true;
}

// Fold the delta back into the run, then scan everything and fingerprint
// both the device's answer and the host model. A mismatch is a merge or
// re-compaction bug, not a perf regression.
sim::Task<void> FoldAndVerify(client::KeyspaceHandle ks, std::uint64_t keys,
                              std::uint64_t value_bytes,
                              const std::map<std::uint64_t, std::uint64_t>&
                                  model,
                              PointResult* out) {
  out->ok = false;
  Status s = co_await ks.Compact();  // incremental re-compaction (no-op
                                     // for mix C's empty delta)
  if (!s.ok()) {
    std::fprintf(stderr, "fold compact failed: %s\n", s.message().c_str());
    co_return;
  }
  s = co_await ks.WaitCompaction();
  if (!s.ok()) {
    std::fprintf(stderr, "fold wait failed: %s\n", s.message().c_str());
    co_return;
  }
  std::vector<std::pair<std::string, std::string>> rows;
  s = co_await ks.Scan("", "\x7f", 0, &rows);
  if (!s.ok()) {
    std::fprintf(stderr, "verify scan failed: %s\n", s.message().c_str());
    co_return;
  }
  out->scan_crc = CrcRows(0, rows);
  for (std::uint64_t id = 0; id < keys; ++id) {
    auto it = model.find(id);
    if (it == model.end()) continue;
    const std::string key = MakeFixedKey(id);
    const std::string value = ValueFor(id, it->second, value_bytes);
    out->model_crc = crc32c::Extend(out->model_crc, key.data(), key.size());
    out->model_crc = crc32c::Extend(out->model_crc, value.data(),
                                    value.size());
  }
  out->ok = rows.size() == model.size() && out->scan_crc == out->model_crc;
  if (!out->ok) {
    std::fprintf(stderr,
                 "verify mismatch: scan %zu rows crc %08x vs model %zu "
                 "keys crc %08x\n",
                 rows.size(), out->scan_crc, model.size(), out->model_crc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 8192);
  const std::uint64_t ops = flags.GetUint("ops", 8192);
  const std::uint64_t value_bytes = flags.GetUint("value_bytes", 128);
  const std::uint64_t seed = flags.GetUint("seed", 42);
  const std::uint64_t depth_lo = flags.GetUint("depth_lo", 1);
  const std::uint64_t depth_hi = flags.GetUint("depth_hi", 4);
  if (keys == 0 || ops == 0 || depth_lo == 0 || depth_hi < depth_lo) {
    std::fprintf(stderr,
                 "--keys and --ops must be > 0; need 0 < depth_lo <= "
                 "depth_hi\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("ycsb", flags);

  std::printf(
      "YCSB mixes over a compacted keyspace: %s keys x %sB values, "
      "%s ops per point, depths %llu and %llu\n",
      FormatCount(keys).c_str(), FormatCount(value_bytes).c_str(),
      FormatCount(ops).c_str(),
      static_cast<unsigned long long>(depth_lo),
      static_cast<unsigned long long>(depth_hi));
  Table table("Mixed ops/s over compacted keyspace (delta + merge reads)",
              {"mix", "depth", "ops/s", "reads", "updates+rmw", "deletes",
               "hit%", "folded", "verified"});

  std::vector<std::uint64_t> depths;
  depths.push_back(depth_lo);
  if (depth_hi != depth_lo) depths.push_back(depth_hi);

  bool all_ok = true;
  for (const MixSpec& mix : kMixes) {
    for (std::uint64_t depth : depths) {
      TestbedConfig config = TestbedConfig::Scaled();
      config.queues.sq_depth_cap = static_cast<std::uint32_t>(depth + 1);
      CsdTestbed bed(config);

      // Keys 0..N-1 at version 0, compacted: the keyspace is COMPACTED
      // and ready for delta traffic. Untimed.
      client::KeyspaceHandle ks;
      bed.sim().Spawn([](client::Client* db, std::uint64_t n,
                         std::uint64_t bytes,
                         client::KeyspaceHandle* out) -> sim::Task<void> {
        auto loaded = co_await LoadKeyspace(
            *db, "ycsb", SequentialIds(n),
            [bytes](std::uint64_t id) { return ValueFor(id, 0, bytes); }, {});
        if (CheckOk(loaded.status(), "ycsb load")) *out = *loaded;
      }(&bed.client(), keys, value_bytes, &ks));
      bed.sim().Run();
      if (!ks.valid()) {
        std::fprintf(stderr, "mix %s depth %llu: load failed\n", mix.name,
                     static_cast<unsigned long long>(depth));
        all_ok = false;
        continue;
      }

      // Host-side model: key id -> live version (absent = deleted).
      std::map<std::uint64_t, std::uint64_t> model;
      for (std::uint64_t i = 0; i < keys; ++i) model[i] = 0;

      PointResult point;
      bed.sim().Spawn(MixedPhase(&bed.sim(), ks, mix, keys, ops,
                                 value_bytes, depth, seed, &model, &point));
      bed.sim().Run();
      if (!point.ok) {
        all_ok = false;
        continue;
      }

      bed.sim().Spawn(
          FoldAndVerify(ks, keys, value_bytes, model, &point));
      bed.sim().Run();
      point.recompactions =
          bed.sim().stats().counter_value("device.recompact.done");
      point.delta_keys_folded =
          bed.sim().stats().counter_value("device.recompact.delta_keys");
      const bool wrote =
          point.updates + point.rmws + point.deletes > 0;
      if (!point.ok || (wrote && point.recompactions == 0)) {
        std::fprintf(stderr, "mix %s depth %llu: verification failed\n",
                     mix.name, static_cast<unsigned long long>(depth));
        all_ok = false;
      }

      const double ops_per_sec =
          point.mixed_end > point.mixed_start
              ? static_cast<double>(ops) * 1e9 /
                    static_cast<double>(point.mixed_end - point.mixed_start)
              : 0.0;
      const std::uint64_t lookups = point.reads + point.rmws;
      const std::string tag = std::string("csd.ycsb.") + mix.name + ".d" +
                              std::to_string(depth);
      report.AddMetric(tag + ".ops_per_sec", ops_per_sec);
      report.AddMetric(tag + ".read_hit_ratio",
                       lookups ? static_cast<double>(point.read_hits) /
                                     static_cast<double>(lookups)
                               : 0.0);
      report.AddMetric(tag + ".delta_keys_folded", point.delta_keys_folded);
      report.AddMetric(tag + ".fingerprint",
                       static_cast<std::uint64_t>(point.scan_crc));
      report.AddMetric(
          tag + ".delta_hits",
          bed.sim().stats().counter_value("device.query.delta_hits"));

      table.AddRow(
          {mix.name, std::to_string(depth),
           FormatCount(static_cast<std::uint64_t>(ops_per_sec)),
           FormatCount(point.reads),
           FormatCount(point.updates + point.rmws),
           FormatCount(point.deletes),
           lookups ? std::to_string(100 * point.read_hits / lookups) + "%"
                   : "-",
           FormatCount(point.delta_keys_folded),
           point.ok ? "yes" : "NO"});

      // Reference point for the p99 gate: the update-heavy mix at the
      // deepest window stresses merge reads and the delta append path.
      if (&mix == &kMixes[0] && depth == depths.back()) {
        report.AddStats(bed.sim().stats(), "client.cmd.");
        report.AddStats(bed.sim().stats(), "device.cmd.");
        report.AddStats(bed.sim().stats(), "device.recompact.");
      }
    }
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  std::printf("\nall mixes verified against host model: %s\n",
              all_ok ? "yes" : "NO (merge/fold bug!)");
  return all_ok ? 0 : 1;
}
