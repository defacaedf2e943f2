// Fig. 7 — "Time to insert 32M keys into a single keyspace using different
// amounts of host compute resources" plus the underlying I/O statistics.
//
//   * N application threads (each pinned to a core; we model pinning as a
//     host CPU pool of exactly N cores) write random 16 B keys / 32 B
//     values into ONE shared keyspace / DB instance.
//   * KV-CSD uses 128 KB bulk PUTs, then invokes compaction and exits —
//     the reported time excludes the offloaded compaction (7a) while the
//     I/O statistics include everything the device does (7b).
//   * RocksDB (RocksLite) runs automatic background compaction and the
//     reported time includes waiting for it to finish, as in the paper.
//
// Paper's headline: KV-CSD 4.2x faster at 32 cores, 7.9x at 2 cores.
//
// Flags: --keys=N (default 1M; paper 32M) --seed=S
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
  const std::uint64_t total_keys = flags.GetUint("keys", 1 << 20);
  const std::uint64_t seed = flags.GetUint("seed", 1);
  ApplyObservabilityFlags(flags);
  JsonReporter report("fig7_put_scaling", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.ScaleLsmTreeTo(total_keys * (16 + 32));
  std::printf("%s", config.Describe().c_str());
  std::printf("Workload: %s random 16B/32B pairs, single shared keyspace\n",
              FormatCount(total_keys).c_str());

  Table time_table(
      "Fig 7a: PUT time vs host cores (single shared keyspace)",
      {"host cores", "KV-CSD put", "RocksDB put+compact", "speedup",
       "KV-CSD compact (async, hidden)"});
  Table io_table(
      "Fig 7b: I/O statistics (device bytes moved during the run)",
      {"host cores", "KV-CSD written", "KV-CSD read", "RocksDB written",
       "RocksDB read", "RocksDB write amp"});

  const std::uint64_t logical_bytes = total_keys * (16 + 32);
  std::uint64_t failures = 0;
  for (std::uint32_t cores : {1u, 2u, 4u, 8u, 16u, 32u}) {
    InsertSpec spec;
    spec.total_keys = total_keys;
    spec.threads = cores;  // one pinned thread per core, as in the paper
    spec.shared_keyspace = true;
    spec.seed = seed;
    // The latency ledger of the put and compaction commands; the last
    // point's series stand.
    spec.on_stats = [&report](const sim::Stats& stats) {
      report.AddStats(stats, "client.cmd.bulk_store.");
      report.AddStats(stats, "client.cmd.compact.");
    };

    CsdInsertOutcome csd = RunCsdInsert(config, cores, spec);
    LsmInsertOutcome lsm =
        RunLsmInsert(config, cores, spec, lsm::CompactionMode::kAuto);
    const std::string run = std::to_string(cores) + " cores";
    CountFailures("KV-CSD insert, " + run, csd.failed, &failures);
    CountFailures("RocksDB insert, " + run, lsm.failed, &failures);

    const double speedup = static_cast<double>(lsm.total_done) /
                           static_cast<double>(csd.insert_done);
    const std::string point = "cores" + std::to_string(cores);
    report.AddMetric("csd.put." + point + ".keys_per_sec",
                     static_cast<double>(total_keys) * 1e9 /
                         static_cast<double>(csd.insert_done));
    report.AddMetric("lsm.put." + point + ".keys_per_sec",
                     static_cast<double>(total_keys) * 1e9 /
                         static_cast<double>(lsm.total_done));
    report.AddMetric("csd.put." + point + ".speedup", speedup);
    report.AddMetric("csd.compact." + point + ".ticks",
                     csd.compaction_done - csd.insert_done);
    report.AddMetric("csd.zns." + point + ".bytes_written",
                     csd.zns_bytes_written);
    report.AddMetric("lsm.ssd." + point + ".bytes_written",
                     lsm.device_bytes_written);
    time_table.AddRow({std::to_string(cores),
                       FormatSeconds(csd.insert_done),
                       FormatSeconds(lsm.total_done), FormatRatio(speedup),
                       FormatSeconds(csd.compaction_done)});
    io_table.AddRow(
        {std::to_string(cores), FormatBytes(csd.zns_bytes_written),
         FormatBytes(csd.zns_bytes_read),
         FormatBytes(lsm.device_bytes_written),
         FormatBytes(lsm.device_bytes_read),
         FormatRatio(static_cast<double>(lsm.device_bytes_written) /
                     static_cast<double>(logical_bytes))});
  }
  time_table.Print();
  io_table.Print();
  report.AddTable(time_table);
  report.AddTable(io_table);
  report.WriteIfRequested();
  return failures == 0 ? 0 : 1;
}
