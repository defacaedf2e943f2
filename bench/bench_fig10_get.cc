// Fig. 10 — "Performance of random GET operations" + I/O statistics.
//
//   Dataset: 32 keyspaces x N keys (paper: 32M each, 1B total), built the
//   same way as Fig. 9, fully compacted. Then 32 query threads (one per
//   keyspace) issue uniformly random GETs; total GET count sweeps the
//   x-axis. KV-CSD caches nothing; the OS page cache is dropped before
//   each RocksDB run (its block cache then warms up *within* a run — the
//   client-side caching effect the paper describes).
//
// Paper's headline: KV-CSD up to 1.3x faster; RocksDB shows heavy read
// inflation (Fig. 10b) and improves as more keys are queried.
//
// Flags: --keys_per_keyspace=N (default 64K; paper 32M)
//        --keyspaces=K (default 32) --seed=S
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <algorithm>
#include <cstdio>

#include "common/keys.h"
#include "common/random.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "harness/workloads.h"
#include "sim/sync.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

// Sequential ids 0..N-1 per keyspace so random GETs always hit: every
// NotFound in the GET phase is a failure. Non-Ok load statuses are
// counted into *failed.
sim::Task<void> CsdLoader(CsdTestbed* bed, std::uint64_t keys,
                          std::uint32_t thread, sim::WaitGroup* wg,
                          std::vector<client::KeyspaceHandle>* handles,
                          std::uint64_t* failed) {
  auto check = [failed](const Status& st) {
    if (!st.ok()) ++*failed;
  };
  auto ks = (co_await bed->client().CreateKeyspace(
                 "ks" + std::to_string(thread)))
                .value();
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    check(co_await writer.Add(MakeFixedKey(i), std::string(32, 'v')));
  }
  check(co_await writer.Drain());
  check(co_await ks.Compact());
  check(co_await ks.WaitCompaction());
  (*handles)[thread] = ks;
  wg->Done();
}

sim::Task<void> LsmLoader(LsmTestbed* bed, std::uint64_t keys,
                          std::uint32_t thread, sim::WaitGroup* wg,
                          std::vector<std::unique_ptr<lsm::Db>>* dbs,
                          std::uint64_t* failed) {
  auto check = [failed](const Status& st) {
    if (!st.ok()) ++*failed;
  };
  auto db = (co_await bed->OpenDb("db" + std::to_string(thread),
                                  lsm::CompactionMode::kAuto))
                .value();
  for (std::uint64_t i = 0; i < keys; ++i) {
    check(co_await db->Put(MakeFixedKey(i), std::string(32, 'v')));
  }
  check(co_await db->Flush());
  co_await db->WaitForIdle();
  (*dbs)[thread] = std::move(db);
  wg->Done();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys_per_keyspace =
      flags.GetUint("keys_per_keyspace", 64 << 10);
  const auto keyspaces =
      static_cast<std::uint32_t>(flags.GetUint("keyspaces", 32));
  const std::uint64_t seed = flags.GetUint("seed", 99);
  ApplyObservabilityFlags(flags);
  JsonReporter report("fig10_get", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.ScaleLsmTreeTo(keys_per_keyspace * (16 + 32));
  // RocksDB's default block cache is 8 MB per instance; scale it with the
  // dataset the same way the tree is scaled (paper: 256 MB cache for a
  // 48 GB dataset, ~0.5%).
  config.block_cache_bytes =
      std::max<std::uint64_t>(MiB(1), keyspaces * keys_per_keyspace * 48 / 200);
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %u keyspaces x %s keys (16B/32B)\n", keyspaces,
              FormatCount(keys_per_keyspace).c_str());

  // ---- build both datasets once ----
  CsdTestbed csd_bed(config);
  std::vector<client::KeyspaceHandle> csd_handles(keyspaces);
  std::uint64_t csd_load_failed = 0;
  {
    sim::WaitGroup wg(&csd_bed.sim());
    wg.Add(keyspaces);
    for (std::uint32_t t = 0; t < keyspaces; ++t) {
      csd_bed.sim().Spawn(
          CsdLoader(&csd_bed, keys_per_keyspace, t, &wg, &csd_handles,
                    &csd_load_failed));
    }
    csd_bed.sim().Run();
  }

  LsmTestbed lsm_bed(config);
  std::vector<std::unique_ptr<lsm::Db>> lsm_dbs(keyspaces);
  std::uint64_t lsm_load_failed = 0;
  {
    sim::WaitGroup wg(&lsm_bed.sim());
    wg.Add(keyspaces);
    for (std::uint32_t t = 0; t < keyspaces; ++t) {
      lsm_bed.sim().Spawn(
          LsmLoader(&lsm_bed, keys_per_keyspace, t, &wg, &lsm_dbs,
                    &lsm_load_failed));
    }
    lsm_bed.sim().Run();
  }
  std::vector<lsm::Db*> lsm_ptrs;
  for (auto& db : lsm_dbs) lsm_ptrs.push_back(db.get());
  std::uint64_t failures = 0;
  CountFailures("KV-CSD load", csd_load_failed, &failures);
  CountFailures("RocksDB load", lsm_load_failed, &failures);

  // ---- GET sweeps ----
  Table time_table("Fig 10a: random GET time vs query count",
                   {"queries", "KV-CSD", "RocksDB", "speedup"});
  Table io_table("Fig 10b: I/O statistics (device bytes read per run)",
                 {"queries", "KV-CSD read", "KV-CSD -> host", "RocksDB read",
                  "RocksDB read inflation"});

  const std::uint64_t base = flags.GetUint("base_gets", 3200);
  for (std::uint64_t factor : {1ull, 2ull, 4ull, 7ull, 10ull}) {
    GetSpec spec;
    spec.total_gets = base * factor;  // paper: 32K..320K
    spec.keys_per_keyspace = keys_per_keyspace;
    spec.threads = keyspaces;
    spec.seed = seed + factor;

    QueryOutcome csd = RunCsdGets(csd_bed, csd_handles, spec);
    // The paper cleans the OS page cache before each RocksDB run.
    QueryOutcome rocks =
        RunLsmGets(lsm_bed, lsm_ptrs, spec, /*drop_page_cache=*/true);
    const std::string run = std::to_string(spec.total_gets) + " GETs";
    CountFailures("KV-CSD " + run, csd.failed + csd.not_found, &failures);
    CountFailures("RocksDB " + run, rocks.failed + rocks.not_found,
                  &failures);

    const std::string point = "gets" + std::to_string(spec.total_gets);
    report.AddMetric("csd.get." + point + ".gets_per_sec",
                     static_cast<double>(spec.total_gets) * 1e9 /
                         static_cast<double>(csd.query_time));
    report.AddMetric("lsm.get." + point + ".gets_per_sec",
                     static_cast<double>(spec.total_gets) * 1e9 /
                         static_cast<double>(rocks.query_time));
    report.AddMetric("csd.get." + point + ".zns_bytes_read",
                     csd.device_bytes_read);
    report.AddMetric("lsm.get." + point + ".ssd_bytes_read",
                     rocks.device_bytes_read);

    const std::uint64_t useful_bytes = spec.total_gets * (16 + 32);
    time_table.AddRow(
        {FormatCount(spec.total_gets), FormatSeconds(csd.query_time),
         FormatSeconds(rocks.query_time),
         FormatRatio(static_cast<double>(rocks.query_time) /
                     static_cast<double>(csd.query_time))});
    io_table.AddRow(
        {FormatCount(spec.total_gets), FormatBytes(csd.device_bytes_read),
         FormatBytes(csd.pcie_d2h_bytes),
         FormatBytes(rocks.device_bytes_read),
         FormatRatio(static_cast<double>(rocks.device_bytes_read) /
                     static_cast<double>(useful_bytes))});
  }
  time_table.Print();
  io_table.Print();
  // Host-visible GET latency percentiles across every sweep point, plus
  // the device's per-command view — the perf gate watches these p99s.
  report.AddStats(csd_bed.sim().stats(), "client.cmd.");
  report.AddStats(csd_bed.sim().stats(), "device.cmd.");
  // Read-path acceleration counters (DESIGN.md §10): index-cache traffic,
  // bloom outcomes, and gather/prefetch behavior across the whole sweep.
  report.AddStats(csd_bed.sim().stats(), "device.read_cache.");
  report.AddStats(csd_bed.sim().stats(), "device.bloom.");
  report.AddStats(csd_bed.sim().stats(), "device.gather.");
  report.AddStats(csd_bed.sim().stats(), "device.prefetch.");
  const std::uint64_t cache_hits =
      csd_bed.sim().stats().counter_value("device.read_cache.hits");
  const std::uint64_t cache_misses =
      csd_bed.sim().stats().counter_value("device.read_cache.misses");
  report.AddMetric("csd.read_cache.hit_ratio",
                   cache_hits + cache_misses == 0
                       ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(cache_hits + cache_misses));
  report.AddCompactionStats(csd_bed.dev().compaction_stats());
  report.AddTable(time_table);
  report.AddTable(io_table);
  report.WriteIfRequested();
  return failures == 0 ? 0 : 1;
}
