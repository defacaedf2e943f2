// Fig. 12 — "KV-CSD vs RocksDB secondary index query time" (paper §VI-C
// query phase).
//
//   After the Fig. 11 write phase, 16 reader threads query particles above
//   an energy threshold; thresholds sweep selectivity from 0.1% to 20%.
//   KV-CSD answers each query entirely in the device from the SIDX blocks
//   and streams back full particles. RocksDB runs the two-step process:
//   range-scan the auxiliary energy keys, then GET every matching primary
//   key (its caches warm within a run; the OS page cache is dropped before
//   each selectivity level, as in the paper).
//
// Paper's headline: speedup 7.4x at 0.1% selectivity, falling to 1.3x at
// 20% as RocksDB's client-side caching catches up.
//
// Flags: --particles=N (default 2M; paper 256M) --files=F (default 16)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
//
// Exits non-zero if any KV-CSD keyspace fails to load, compact or build
// its energy index, if any query of either system fails, or if the two
// systems disagree on any selectivity level's match count.
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "harness/workloads.h"
#include "vpic_common.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT
using namespace kvcsd::bench;    // NOLINT

namespace {

// Both runners add the matches to *hits and every failed query (or, for
// RocksDB, failed primary GET) to *failed.
Tick RunCsdQuery(CsdTestbed& bed,
                 std::vector<client::KeyspaceHandle>& handles,
                 float threshold, std::uint64_t* hits,
                 std::uint64_t* failed) {
  return RunPhase(bed.sim(), handles.size(), [&](std::size_t i) {
    return [](client::KeyspaceHandle handle, float thresh,
              std::uint64_t* hit_count,
              std::uint64_t* fail_count) -> sim::Task<void> {
      std::vector<std::pair<std::string, std::string>> out;
      if (!(co_await handle.QuerySecondaryRangeF32("energy", thresh, 1e30f,
                                                   0, &out))
               .ok()) {
        ++*fail_count;
      }
      *hit_count += out.size();
    }(handles[i], threshold, hits, failed);
  });
}

Tick RunLsmQuery(LsmTestbed& bed, std::vector<std::unique_ptr<lsm::Db>>& dbs,
                 float threshold, std::uint64_t* hits,
                 std::uint64_t* failed) {
  bed.page_cache().DropAll();  // paper cleans the OS cache per run
  return RunPhase(bed.sim(), dbs.size(), [&](std::size_t i) {
    return [](lsm::Db* d, float thresh, std::uint64_t* hit_count,
              std::uint64_t* fail_count) -> sim::Task<void> {
      // Step 1: scan the auxiliary index for matching particle ids.
      std::vector<std::pair<std::string, std::string>> aux;
      if (!(co_await d->RangeScan(AuxRangeStart(thresh), AuxRangeEnd(), 0,
                                  &aux))
               .ok()) {
        ++*fail_count;
      }
      // Step 2: read back each full particle via its primary key; the
      // loader wrote one for every auxiliary key, so NotFound is a failure.
      std::string value;
      for (const auto& [aux_key, particle_id] : aux) {
        if (!(co_await d->Get(std::string(1, kPrimaryPrefix) + particle_id,
                              &value))
                 .ok()) {
          ++*fail_count;
        }
      }
      *hit_count += aux.size();
    }(dbs[i].get(), threshold, hits, failed);
  });
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 2 << 20);
  gen.num_files = static_cast<std::uint32_t>(flags.GetUint("files", 16));
  gen.seed = flags.GetUint("seed", 2023);
  ApplyObservabilityFlags(flags);
  JsonReporter report("fig12_vpic_query", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  // Per-instance data: particles/files x (48 B particle + ~30 B aux pair).
  config.ScaleLsmTreeTo(gen.num_particles / gen.num_files * 78);
  // Block cache at the paper's cache:data ratio (~0.5%).
  config.block_cache_bytes =
      std::max<std::uint64_t>(MiB(1), gen.num_particles * 78 / 200);
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %s synthetic VPIC particles in %u files\n",
              FormatCount(gen.num_particles).c_str(), gen.num_files);

  const vpic::Dump dump(gen);

  // Write phase for both systems (not timed here; that is Fig. 11).
  CsdTestbed csd_bed(config);
  std::vector<client::KeyspaceHandle> handles;
  if (auto load = LoadVpicIntoCsd(csd_bed, dump, &handles); !load.ok()) {
    std::printf("FAIL: KV-CSD load: %s\n", load.status().ToString().c_str());
    return 1;
  }
  LsmTestbed lsm_bed(config);
  std::vector<std::unique_ptr<lsm::Db>> dbs;
  if (auto load = LoadVpicIntoLsm(lsm_bed, dump, &dbs); !load.ok()) {
    std::printf("FAIL: RocksDB load: %s\n", load.status().ToString().c_str());
    return 1;
  }

  Table table("Fig 12: secondary-index query time vs selectivity",
              {"selectivity", "matches", "KV-CSD", "RocksDB", "speedup"});
  int exit_code = 0;
  for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const float threshold =
        dump.EnergyThresholdForSelectivity(pct / 100.0);
    std::uint64_t csd_hits = 0, lsm_hits = 0;
    std::uint64_t csd_failed = 0, lsm_failed = 0;
    const Tick csd_time = RunCsdQuery(csd_bed, handles, threshold,
                                      &csd_hits, &csd_failed);
    const Tick lsm_time =
        RunLsmQuery(lsm_bed, dbs, threshold, &lsm_hits, &lsm_failed);
    if (csd_failed != 0 || lsm_failed != 0) {
      std::printf("FAIL: %.1f%%: %llu KV-CSD and %llu RocksDB operations "
                  "failed\n",
                  pct, static_cast<unsigned long long>(csd_failed),
                  static_cast<unsigned long long>(lsm_failed));
      exit_code = 1;
    }
    if (csd_hits != lsm_hits) {
      std::printf("FAIL: result mismatch at %.1f%%: %llu vs %llu\n", pct,
                  static_cast<unsigned long long>(csd_hits),
                  static_cast<unsigned long long>(lsm_hits));
      exit_code = 1;
    }
    char sel[32];
    std::snprintf(sel, sizeof(sel), "%.1f%%", pct);
    char point[32];
    std::snprintf(point, sizeof(point), "sel%.1f", pct);
    report.AddMetric(std::string("csd.query.") + point + ".hits_per_sec",
                     static_cast<double>(csd_hits) * 1e9 /
                         static_cast<double>(csd_time));
    report.AddMetric(std::string("lsm.query.") + point + ".hits_per_sec",
                     static_cast<double>(lsm_hits) * 1e9 /
                         static_cast<double>(lsm_time));
    report.AddMetric(std::string("csd.query.") + point + ".hits", csd_hits);
    table.AddRow({sel, FormatCount(csd_hits), FormatSeconds(csd_time),
                  FormatSeconds(lsm_time),
                  FormatRatio(static_cast<double>(lsm_time) /
                              static_cast<double>(csd_time))});
  }
  table.Print();
  report.AddStats(csd_bed.sim().stats(), "device.ks.");
  report.AddTable(table);
  report.WriteIfRequested();
  return exit_code;
}
