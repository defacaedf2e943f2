// Ablation A3 — fused vs separate secondary-index construction.
//
// The paper (§V) builds the primary index and each secondary index as
// separate device operations, and notes as future work that consolidating
// them into one pass would avoid "repeatedly reading back keyspace data
// into SoC DRAM" at the cost of increased DRAM usage. Both variants are
// implemented here; this bench quantifies the trade. It exits 1 when any
// load, compaction or index-build step fails, or when the two builds
// answer an energy-range query with different rows.
//
// Flags: --keys=N (default 256K)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

struct Outcome {
  Tick device_done;  // compaction + index work finished
  std::uint64_t zns_reads;
  std::uint64_t zns_writes;
  // TEMP runs the index build spilled: 0 when its tuples fit the sort
  // budget and were sorted and packed in DRAM.
  std::uint64_t sidx_runs_spilled;
  Status status;  // first failed step, Ok when every step succeeded
  // The energy-range query's answer: row count and a crc32c over the
  // (key, value) rows in result order.
  std::uint64_t rows = 0;
  std::uint32_t rows_crc = 0;
};

// 28 filler bytes then the f32 energy (id % 1000) at offset 28.
std::string EnergyValue(std::uint64_t id) {
  std::string value(28, 'p');
  const float energy = static_cast<float>(id % 1000);
  value.append(reinterpret_cast<const char*>(&energy), 4);
  return value;
}

// Loads `n` keys into keyspace "a3" and builds the energy index, fused
// into the compaction or as a separate pass; *status keeps the first
// failure (later steps are skipped). A failed fused compaction rolls
// back rather than failing the wait; the query that follows then fails
// on the uncompacted keyspace.
sim::Task<void> LoadAndIndex(client::Client* db, bool fuse, std::uint64_t n,
                             Status* status) {
  std::vector<nvme::SecondaryIndexSpec> fused_indexes;
  if (fuse) fused_indexes.push_back(nvme::F32Index("energy", 28));
  auto ks = co_await LoadKeyspace(*db, "a3", SequentialIds(n), EnergyValue,
                                  fused_indexes);
  *status = ks.status();
  if (ks.ok() && !fuse) {
    *status =
        AtStep("index", co_await ks->CreateSecondaryIndexF32("energy", 28));
  }
}

// One energy-range query over the built index (energies 100..199).
sim::Task<void> QueryEnergy(CsdTestbed* tb, Outcome* out) {
  auto ks = co_await tb->client().OpenKeyspace("a3");
  if (!ks.ok()) {
    out->status = ks.status();
    co_return;
  }
  std::vector<std::pair<std::string, std::string>> rows;
  out->status =
      co_await ks->QuerySecondaryRangeF32("energy", 100.0f, 199.0f, 0, &rows);
  out->rows = rows.size();
  out->rows_crc = CrcRows(0, rows);
}

Outcome Run(bool fused, std::uint64_t keys, std::uint64_t dram_bytes) {
  TestbedConfig config = TestbedConfig::Scaled();
  config.device.dram_bytes = dram_bytes;
  CsdTestbed bed(config);
  Outcome outcome{};
  bed.sim().Spawn(LoadAndIndex(&bed.client(), fused, keys, &outcome.status));
  bed.sim().Run();
  outcome.device_done = bed.sim().Now();
  outcome.zns_reads = bed.dev().ssd().total_bytes_read();
  outcome.zns_writes = bed.dev().ssd().total_bytes_written();
  outcome.sidx_runs_spilled =
      bed.sim().stats().counter_value("device.sidx.runs_spilled");
  if (outcome.status.ok()) {
    bed.sim().Spawn(QueryEnergy(&bed, &outcome));
    bed.sim().Run();
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 256 << 10);
  ApplyObservabilityFlags(flags);
  JsonReporter report("ablate_fused_index", flags);

  std::printf(
      "Ablation: separate (paper design) vs fused (paper future work) "
      "index construction, %s keys\n",
      FormatCount(keys).c_str());
  Table table("A3: compaction + energy-index build",
              {"variant", "SoC DRAM", "total device time", "ZNS read",
               "ZNS written", "SIDX runs spilled"});
  int exit_code = 0;
  for (std::uint64_t dram : {MiB(256), MiB(16)}) {
    Outcome separate = Run(false, keys, dram);
    Outcome fused = Run(true, keys, dram);
    const std::string point = "dram" + std::to_string(dram >> 20);
    for (const Outcome* o : {&separate, &fused}) {
      if (!o->status.ok()) {
        std::fprintf(stderr, "FAIL: %s %s: %s\n",
                     o == &fused ? "fused" : "separate", point.c_str(),
                     o->status.ToString().c_str());
        exit_code = 1;
      }
    }
    // Both builds index the same data, so they must answer alike.
    if (separate.rows == 0 || separate.rows != fused.rows ||
        separate.rows_crc != fused.rows_crc) {
      std::fprintf(stderr,
                   "FAIL: %s: energy query rows differ: separate %llu "
                   "(crc %08x), fused %llu (crc %08x)\n",
                   point.c_str(),
                   static_cast<unsigned long long>(separate.rows),
                   separate.rows_crc,
                   static_cast<unsigned long long>(fused.rows),
                   fused.rows_crc);
      exit_code = 1;
    }
    report.AddMetric("csd.separate." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(separate.device_done));
    report.AddMetric("csd.fused." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(fused.device_done));
    report.AddMetric("csd.separate." + point + ".zns_reads",
                     separate.zns_reads);
    report.AddMetric("csd.fused." + point + ".zns_reads", fused.zns_reads);
    report.AddMetric("csd.separate." + point + ".sidx_runs_spilled",
                     separate.sidx_runs_spilled);
    report.AddMetric("csd.fused." + point + ".sidx_runs_spilled",
                     fused.sidx_runs_spilled);
    report.AddMetric("csd." + point + ".query_rows", separate.rows);
    report.AddMetric("csd." + point + ".query_crc",
                     static_cast<std::uint64_t>(separate.rows_crc));
    table.AddRow({"separate", FormatBytes(dram),
                  FormatSeconds(separate.device_done),
                  FormatBytes(separate.zns_reads),
                  FormatBytes(separate.zns_writes),
                  FormatCount(separate.sidx_runs_spilled)});
    table.AddRow({"fused", FormatBytes(dram),
                  FormatSeconds(fused.device_done),
                  FormatBytes(fused.zns_reads), FormatBytes(fused.zns_writes),
                  FormatCount(fused.sidx_runs_spilled)});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  std::printf("%s\n", exit_code == 0
                           ? "verdict: OK (every step succeeded; separate and "
                             "fused builds answer alike)"
                           : "verdict: FAIL");
  return exit_code;
}
