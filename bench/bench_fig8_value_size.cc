// Fig. 8 — "Time to insert 32M keys with different value sizes into a
// single keyspace."
//
//   Value sizes sweep 32 B → 4 KB. RocksDB uses all 32 host cores (its
//   best case); KV-CSD is shown with both 2 and 32 host cores, because the
//   paper's point is that 2 cores already reach device-bound peak.
//
// Paper's headline: 10x faster at 4 KB values (32 cores), and still 8.9x
// when KV-CSD is limited to 2 host cores.
//
// Flags: --keys=N (default 64K; paper 32M) --seed=S
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t total_keys = flags.GetUint("keys", 64 << 10);
  const std::uint64_t seed = flags.GetUint("seed", 1);
  ApplyObservabilityFlags(flags);
  JsonReporter report("fig8_value_size", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  std::printf("%s", config.Describe().c_str());
  std::printf("Workload: %s keys, value size sweep, single keyspace\n",
              FormatCount(total_keys).c_str());

  Table table("Fig 8: PUT time vs value size",
              {"value size", "KV-CSD (32 cores)", "KV-CSD (2 cores)",
               "RocksDB (32 cores)", "speedup@32", "speedup@2"});

  std::uint64_t failures = 0;
  for (std::uint32_t value_bytes : {32u, 128u, 512u, 1024u, 4096u}) {
    config.ScaleLsmTreeTo(total_keys * (16 + value_bytes));
    InsertSpec spec;
    spec.total_keys = total_keys;
    spec.value_bytes = value_bytes;
    spec.threads = 32;
    spec.shared_keyspace = true;
    spec.seed = seed;

    CsdInsertOutcome csd32 = RunCsdInsert(config, 32, spec);
    InsertSpec spec2 = spec;
    spec2.threads = 2;  // two pinned threads on two cores
    CsdInsertOutcome csd2 = RunCsdInsert(config, 2, spec2);
    LsmInsertOutcome rocks =
        RunLsmInsert(config, 32, spec, lsm::CompactionMode::kAuto);
    const std::string run = std::to_string(value_bytes) + " B values";
    CountFailures("KV-CSD insert (32 cores), " + run, csd32.failed,
                  &failures);
    CountFailures("KV-CSD insert (2 cores), " + run, csd2.failed, &failures);
    CountFailures("RocksDB insert, " + run, rocks.failed, &failures);

    const std::string point = "val" + std::to_string(value_bytes);
    report.AddMetric("csd.put32." + point + ".keys_per_sec",
                     static_cast<double>(total_keys) * 1e9 /
                         static_cast<double>(csd32.insert_done));
    report.AddMetric("csd.put2." + point + ".keys_per_sec",
                     static_cast<double>(total_keys) * 1e9 /
                         static_cast<double>(csd2.insert_done));
    report.AddMetric("lsm.put32." + point + ".keys_per_sec",
                     static_cast<double>(total_keys) * 1e9 /
                         static_cast<double>(rocks.total_done));
    table.AddRow(
        {FormatBytes(value_bytes), FormatSeconds(csd32.insert_done),
         FormatSeconds(csd2.insert_done), FormatSeconds(rocks.total_done),
         FormatRatio(static_cast<double>(rocks.total_done) /
                     static_cast<double>(csd32.insert_done)),
         FormatRatio(static_cast<double>(rocks.total_done) /
                     static_cast<double>(csd2.insert_done))});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  return failures == 0 ? 0 : 1;
}
