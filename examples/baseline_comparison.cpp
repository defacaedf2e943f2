// Side-by-side demo: the same bulk-load-then-query workload against
// KV-CSD (offloaded, deferred compaction) and the RocksLite software
// baseline (host compaction over a filesystem) — a one-screen version of
// the paper's evaluation story. Exits 1 if any operation of either
// system fails.
//
// Build & run:  ./build/examples/baseline_comparison [--keys=N]
#include <cstdio>

#include "common/keys.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 1 << 20);

  TestbedConfig config = TestbedConfig::Scaled();
  config.ScaleLsmTreeTo(keys / 16 * 48);  // per-instance share of the data
  std::printf("%s", config.Describe().c_str());

  InsertSpec spec;
  spec.total_keys = keys;
  spec.threads = 16;
  spec.shared_keyspace = false;  // one keyspace / instance per thread

  std::printf("\nLoading %s 16B/32B pairs with %u threads...\n",
              FormatCount(keys).c_str(), spec.threads);

  CsdInsertOutcome csd = RunCsdInsert(config, 32, spec);
  LsmInsertOutcome rocks =
      RunLsmInsert(config, 32, spec, lsm::CompactionMode::kAuto);

  Table table("Bulk load: what the application waits for",
              {"system", "load time", "notes"});
  table.AddRow({"KV-CSD", FormatSeconds(csd.insert_done),
                "compaction deferred + offloaded (finished at " +
                    FormatSeconds(csd.compaction_done) + ")"});
  table.AddRow({"RocksLite", FormatSeconds(rocks.total_done),
                "auto compaction on host, " +
                    std::to_string(rocks.compactions) + " compactions, " +
                    std::to_string(rocks.stalls) + " write stalls"});
  table.Print();
  std::printf("\nSpeedup: %s\n",
              FormatRatio(static_cast<double>(rocks.total_done) /
                          static_cast<double>(csd.insert_done))
                  .c_str());

  std::uint64_t failures = 0;
  CountFailures("KV-CSD insert", csd.failed, &failures);
  CountFailures("RocksLite insert", rocks.failed, &failures);
  return failures == 0 ? 0 : 1;
}
