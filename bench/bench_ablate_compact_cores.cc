// Ablation A5 — compaction throughput vs SoC core count (paper §IV: the
// Sidewinder-100 runs the KV store on 4 weak ARM cores; the compactor is
// a multi-core pipeline, so its wall-clock should improve with cores).
//
// A fixed dataset (bulk-loaded in shuffled order, with a fused f32
// secondary index) is compacted under soc_cores ∈ {1, 2, 4, 8}. For each
// setting the table reports the simulated compaction time, the speedup
// over 1 core, the phase split (phase 1, phase 2 and the commit, which add
// up to the device's compaction time), and a crc32c fingerprint of the compacted
// keyspace contents: PIDX sketch pivots, entry count, a primary scan, a
// sample of point gets, and a secondary range query. The fingerprint must
// be identical at every core count — parallelism may change timing and
// flash placement, never results. Phase 2's key merge runs as key-range
// partitions on the cores, so phase 2 must never get slower from 1 to 4
// cores and must be strictly faster at 4 than at 1. A failed step (load,
// compaction, or a fingerprint query) fails the bench, naming the step,
// and so do phases that do not add up to the device's compaction time.
//
// Flags: --keys=N (default 96K)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
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

// 32-byte value with an f32 secondary key at offset 28 and deterministic
// id-dependent filler (so value bytes also enter the fingerprint).
std::string ValueFor(std::uint64_t id) {
  std::string v(28, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (id + i * 7) % 26);
  }
  const float energy = static_cast<float>(id % 4096) * 0.25f;
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

struct SweepResult {
  Tick insert_done = 0;
  Tick compact_done = 0;
  std::uint32_t fingerprint = 0;
  std::uint64_t num_kvs = 0;
  Status status;  // the first failed step; Ok when every step succeeded
};

sim::Task<void> Driver(client::Client* db, sim::Simulation* sim,
                       std::uint64_t keys, SweepResult* out) {
  auto loaded =
      co_await BulkLoadKeyspace(*db, "ablate_cores", ShuffledIds(keys),
                                ValueFor);
  out->status = loaded.status();
  if (!out->status.ok()) co_return;
  client::KeyspaceHandle ks = *loaded;
  out->insert_done = sim->Now();

  std::vector<nvme::SecondaryIndexSpec> specs = {nvme::F32Index("energy", 28)};
  out->status =
      AtStep("compact", co_await ks.CompactWithIndexes(std::move(specs)));
  if (!out->status.ok()) co_return;
  out->status = AtStep("wait compaction", co_await ks.WaitCompaction());
  if (!out->status.ok()) co_return;
  out->compact_done = sim->Now();

  // Content fingerprint (order-sensitive, timing-insensitive).
  auto stat = co_await ks.GetStat();
  out->status = AtStep("stat", stat.status());
  if (!out->status.ok()) co_return;
  out->num_kvs = stat->num_kvs;

  client::Rows rows;
  out->status = AtStep("scan", co_await ks.Scan(MakeFixedKey(keys / 3),
                                                MakeFixedKey(keys / 3 + 256),
                                                0, &rows));
  if (!out->status.ok()) co_return;
  std::uint32_t crc = CrcRows(0, rows);

  for (std::uint64_t probe = 0; probe < 32; ++probe) {
    const std::uint64_t id = (probe * keys) / 32;
    auto v = co_await ks.Get(MakeFixedKey(id));
    out->status = AtStep("get", v.status());
    if (!out->status.ok()) co_return;
    crc = crc32c::Extend(crc, v->data(), v->size());
  }

  rows.clear();
  out->status = AtStep("secondary range",
                       co_await ks.QuerySecondaryRangeF32(
                           "energy", 100.0f, 108.0f, 0, &rows));
  if (!out->status.ok()) co_return;
  out->fingerprint = CrcRows(crc, rows);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 96 << 10);
  if (keys == 0) {
    std::fprintf(stderr, "--keys must be > 0\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("ablate_compact_cores", flags);

  std::printf(
      "Ablation: compaction pipeline vs SoC core count (%s keys, fused "
      "f32 index)\n",
      FormatCount(keys).c_str());
  Table table("A5: offloaded compaction vs soc_cores",
              {"cores", "compaction (async)", "speedup vs 1 core",
               "phase-1", "phase-2", "commit", "runs", "fan-in",
               "fingerprint"});

  Tick one_core_ticks = 0;
  std::uint32_t base_fingerprint = 0;
  std::uint64_t base_num_kvs = 0;
  bool monotone = true;
  bool identical = true;
  bool all_ok = true;
  bool phase2_monotone = true;
  bool phases_add_up = true;
  Tick prev_ticks = 0;
  Tick one_core_phase2 = 0;
  Tick four_core_phase2 = 0;
  Tick prev_phase2 = 0;

  const std::uint32_t core_counts[] = {1, 2, 4, 8};
  for (std::uint32_t cores : core_counts) {
    TestbedConfig config = TestbedConfig::Scaled();
    config.device.soc_cores = cores;

    CsdTestbed bed(config);
    SweepResult result;
    bed.sim().Spawn(Driver(&bed.client(), &bed.sim(), keys, &result));
    bed.sim().Run();
    if (!result.status.ok()) {
      std::fprintf(stderr, "FAIL: cores=%u: %s\n", cores,
                   result.status.ToString().c_str());
      all_ok = false;
    }

    const device::CompactionStats& stats = bed.dev().compaction_stats();
    const Tick compact_ticks = result.compact_done - result.insert_done;
    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x", result.fingerprint);
    // The device's compaction time, less than the host-observed one by the
    // command round trips.
    if (stats.phase1_ticks + stats.phase2_ticks + stats.commit_ticks !=
            stats.total_ticks ||
        stats.total_ticks == 0 || stats.total_ticks > compact_ticks) {
      phases_add_up = false;
    }

    if (cores == 1) {
      one_core_ticks = compact_ticks;
      one_core_phase2 = stats.phase2_ticks;
      base_fingerprint = result.fingerprint;
      base_num_kvs = result.num_kvs;
    } else {
      // Strictly slower is a regression; ties are fine (a dataset small
      // enough for a single run leaves nothing to parallelize).
      if (cores <= 4 && compact_ticks > prev_ticks) monotone = false;
      if (cores <= 4 && stats.phase2_ticks > prev_phase2) {
        phase2_monotone = false;
      }
      if (result.fingerprint != base_fingerprint ||
          result.num_kvs != base_num_kvs) {
        identical = false;
      }
    }
    prev_ticks = compact_ticks;
    prev_phase2 = stats.phase2_ticks;
    if (cores == 4) four_core_phase2 = stats.phase2_ticks;

    const std::string point = "cores" + std::to_string(cores);
    // keys/sec through compaction: the gateable throughput metric.
    report.AddMetric("csd.compact." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(compact_ticks));
    report.AddMetric("csd.compact." + point + ".ticks", compact_ticks);
    report.AddMetric("csd.compact." + point + ".phase1_ticks",
                     stats.phase1_ticks);
    report.AddMetric("csd.compact." + point + ".phase2_ticks",
                     stats.phase2_ticks);
    report.AddMetric("csd.compact." + point + ".commit_ticks",
                     stats.commit_ticks);
    report.AddMetric("csd.compact." + point + ".fingerprint",
                     static_cast<std::uint64_t>(result.fingerprint));

    table.AddRow({std::to_string(cores), FormatSeconds(compact_ticks),
                  FormatRatio(static_cast<double>(one_core_ticks) /
                              static_cast<double>(compact_ticks)),
                  FormatSeconds(stats.phase1_ticks),
                  FormatSeconds(stats.phase2_ticks),
                  FormatSeconds(stats.commit_ticks),
                  FormatCount(stats.runs_spilled),
                  FormatCount(stats.max_merge_fanin), fp});

    if (cores == 4) {
      PrintCompactionStats("device compaction counters (4 cores)", stats);
    }
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();

  std::printf("\ncompaction time monotone 1->4 cores: %s\n",
              monotone ? "yes" : "NO (regression!)");
  const bool phase2_scales =
      phase2_monotone && four_core_phase2 < one_core_phase2;
  std::printf("phase 2 never slower 1->4 cores, faster at 4 than 1: %s\n",
              phase2_scales ? "yes" : "NO (the key merge does not scale!)");
  std::printf("contents identical across core counts: %s\n",
              identical ? "yes" : "NO (determinism bug!)");
  std::printf("phase-1 + phase-2 + commit = device compaction time: %s\n",
              phases_add_up ? "yes" : "NO (time outside every phase!)");
  return (all_ok && monotone && phase2_scales && identical && phases_add_up)
             ? 0
             : 1;
}
