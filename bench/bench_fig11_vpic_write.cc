// Fig. 11 — "Breakdown of KV-CSD and RocksDB insertion time" for the VPIC
// macro benchmark (paper §VI-C write phase).
//
//   A synthetic VPIC dump (paper: 256M particles x 48B in 16 files) is
//   loaded by 16 threads into 16 keyspaces / RocksDB instances.
//   KV-CSD: bulk-put particles, then deferred compaction + secondary index
//   on kinetic energy — both run asynchronously in the device, so the
//   application only experiences the insert time ("effective write time").
//   RocksDB: primary + auxiliary (1 B-prefixed energy) records, automatic
//   compaction; the application waits for compaction to finish.
//
// Paper's headline: 66 s effective write vs 704 s -> 10.6x.
//
// Flags: --particles=N (default 2M; paper 256M) --files=F (default 16)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
//
// Exits non-zero if any KV-CSD keyspace fails to load, compact or build
// its energy index.
#include <cstdio>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "vpic_common.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT
using namespace kvcsd::bench;    // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 2 << 20);
  gen.num_files = static_cast<std::uint32_t>(flags.GetUint("files", 16));
  gen.seed = flags.GetUint("seed", 2023);
  ApplyObservabilityFlags(flags);
  JsonReporter report("fig11_vpic_write", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  // Per-instance data: particles/files x (48 B particle + ~30 B aux pair).
  config.ScaleLsmTreeTo(gen.num_particles / gen.num_files * 78);
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %s synthetic VPIC particles (48 B) in %u files\n",
              FormatCount(gen.num_particles).c_str(), gen.num_files);

  const vpic::Dump dump(gen);

  CsdTestbed csd_bed(config);
  std::vector<client::KeyspaceHandle> handles;
  auto csd_load = LoadVpicIntoCsd(csd_bed, dump, &handles);
  if (!csd_load.ok()) {
    std::printf("FAIL: KV-CSD load: %s\n",
                csd_load.status().ToString().c_str());
    return 1;
  }
  const CsdVpicTimes csd = *csd_load;

  LsmTestbed lsm_bed(config);
  std::vector<std::unique_ptr<lsm::Db>> dbs;
  LsmVpicTimes rocks = LoadVpicIntoLsm(lsm_bed, dump, &dbs);

  const Tick rocks_effective = rocks.insert + rocks.compaction_wait;

  Table table("Fig 11: VPIC write-phase breakdown",
              {"system", "insert", "compaction", "indexing",
               "effective write time (what the app waits for)"});
  table.AddRow({"KV-CSD", FormatSeconds(csd.insert),
                FormatSeconds(csd.compaction) + " (async)",
                FormatSeconds(csd.index) + " (async)",
                FormatSeconds(csd.insert)});
  table.AddRow({"RocksDB", FormatSeconds(rocks.insert),
                FormatSeconds(rocks.compaction_wait) + " (waited)",
                "(merged into compaction)",
                FormatSeconds(rocks_effective)});
  table.Print();
  std::printf("\nEffective-write-time speedup: %s (paper: 10.6x)\n",
              FormatRatio(static_cast<double>(rocks_effective) /
                          static_cast<double>(csd.insert))
                  .c_str());

  report.AddMetric("csd.write.particles_per_sec",
                   static_cast<double>(gen.num_particles) * 1e9 /
                       static_cast<double>(csd.insert));
  report.AddMetric("lsm.write.particles_per_sec",
                   static_cast<double>(gen.num_particles) * 1e9 /
                       static_cast<double>(rocks_effective));
  report.AddMetric("csd.write.compact_ticks", csd.compaction);
  report.AddMetric("csd.write.index_ticks", csd.index);
  report.AddMetric("csd.write.speedup",
                   static_cast<double>(rocks_effective) /
                       static_cast<double>(csd.insert));
  report.AddStats(csd_bed.sim().stats(), "device.cmd.");
  report.AddCompactionStats(csd_bed.dev().compaction_stats());
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
