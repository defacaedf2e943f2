// Ablation A4 — SoC DRAM budget vs offloaded compaction time (paper §III
// "LSM-Trees": the device trades memory for extra merge-sort I/O rounds,
// hidden by asynchronous processing).
//
// A fixed dataset is compacted under shrinking DRAM budgets; smaller
// budgets mean more, smaller sorted runs and therefore more TEMP-zone
// traffic during the merge.
//
// Flags: --keys=N (default 256K)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
#include <string>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 256 << 10);
  ApplyObservabilityFlags(flags);
  JsonReporter report("ablate_dram", flags);

  std::printf("Ablation: SoC DRAM budget vs compaction cost (%s keys)\n",
              FormatCount(keys).c_str());
  Table table("A4: offloaded compaction vs SoC DRAM budget",
              {"DRAM budget", "insert", "compaction (async)",
               "device bytes written", "device bytes read"});

  std::uint64_t failures = 0;
  for (std::uint64_t dram :
       {MiB(8), MiB(16), MiB(64), MiB(256)}) {
    TestbedConfig config = TestbedConfig::Scaled();
    config.device.dram_bytes = dram;

    InsertSpec spec;
    spec.total_keys = keys;
    spec.threads = 8;
    spec.shared_keyspace = true;
    CsdInsertOutcome outcome = RunCsdInsert(config, 32, spec);
    CountFailures("KV-CSD insert, " + std::to_string(dram >> 20) + " MiB DRAM",
                  outcome.failed, &failures);

    const std::string point = "dram" + std::to_string(dram >> 20);
    report.AddMetric("csd.compact." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(outcome.compaction_done -
                                             outcome.insert_done));
    report.AddMetric("csd.compact." + point + ".zns_bytes_written",
                     outcome.zns_bytes_written);
    report.AddMetric("csd.compact." + point + ".zns_bytes_read",
                     outcome.zns_bytes_read);
    table.AddRow({FormatBytes(dram), FormatSeconds(outcome.insert_done),
                  FormatSeconds(outcome.compaction_done - outcome.insert_done),
                  FormatBytes(outcome.zns_bytes_written),
                  FormatBytes(outcome.zns_bytes_read)});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  return failures == 0 ? 0 : 1;
}
