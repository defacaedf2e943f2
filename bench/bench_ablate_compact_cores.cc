// Ablation A5 — compaction throughput vs SoC core count (paper §IV: the
// Sidewinder-100 runs the KV store on 4 weak ARM cores; the compactor is
// a multi-core pipeline, so its wall-clock should improve with cores).
//
// A fixed dataset (bulk-loaded in shuffled order, with a fused f32
// secondary index) is compacted under soc_cores ∈ {1, 2, 4, 8}. For each
// setting the table reports the simulated compaction time, the speedup
// over 1 core, the phase split, and a crc32c fingerprint of the compacted
// keyspace contents: PIDX sketch pivots, entry count, a primary scan, a
// sample of point gets, and a secondary range query. The fingerprint must
// be identical at every core count — parallelism may change timing and
// flash placement, never results. Phase 2's key merge runs as key-range
// partitions on the cores, so phase 2 must never get slower from 1 to 4
// cores and must be strictly faster at 4 than at 1.
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
};

std::uint32_t ExtendWithPairs(
    std::uint32_t crc,
    const std::vector<std::pair<std::string, std::string>>& rows) {
  for (const auto& [k, v] : rows) {
    crc = crc32c::Extend(crc, k.data(), k.size());
    crc = crc32c::Extend(crc, v.data(), v.size());
  }
  return crc;
}

sim::Task<void> Driver(client::Client* db, sim::Simulation* sim,
                       std::uint64_t keys, SweepResult* out) {
  auto created = co_await db->CreateKeyspace("ablate_cores");
  if (!created.ok()) co_return;
  auto ks = std::move(*created);

  // Shuffled (but deterministic) insertion order: stride coprime to keys.
  std::uint64_t stride = 7919;
  while (keys % stride == 0) ++stride;
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t id = (i * stride) % keys;
    if (!(co_await writer.Add(MakeFixedKey(id), ValueFor(id))).ok()) {
      co_return;
    }
  }
  if (!(co_await writer.Flush()).ok()) co_return;
  out->insert_done = sim->Now();

  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(std::move(energy));
  if (!(co_await ks.CompactWithIndexes(std::move(specs))).ok()) co_return;
  if (!(co_await ks.WaitCompaction()).ok()) co_return;
  out->compact_done = sim->Now();

  // Content fingerprint (order-sensitive, timing-insensitive).
  std::uint32_t crc = 0;
  auto stat = co_await ks.GetStat();
  if (!stat.ok()) co_return;
  out->num_kvs = stat->num_kvs;

  std::vector<std::pair<std::string, std::string>> rows;
  if (!(co_await ks.Scan(MakeFixedKey(keys / 3),
                         MakeFixedKey(keys / 3 + 256), 0, &rows))
           .ok()) {
    co_return;
  }
  crc = ExtendWithPairs(crc, rows);

  for (std::uint64_t probe = 0; probe < 32; ++probe) {
    const std::uint64_t id = (probe * keys) / 32;
    auto v = co_await ks.Get(MakeFixedKey(id));
    if (!v.ok()) co_return;
    crc = crc32c::Extend(crc, v->data(), v->size());
  }

  rows.clear();
  if (!(co_await ks.QuerySecondaryRangeF32("energy", 100.0f, 108.0f, 0,
                                           &rows))
           .ok()) {
    co_return;
  }
  crc = ExtendWithPairs(crc, rows);
  out->fingerprint = crc;
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
               "phase-1", "phase-2", "runs", "fan-in", "fingerprint"});

  Tick one_core_ticks = 0;
  std::uint32_t base_fingerprint = 0;
  std::uint64_t base_num_kvs = 0;
  bool monotone = true;
  bool identical = true;
  bool phase2_monotone = true;
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

    const device::CompactionStats& stats = bed.dev().compaction_stats();
    const Tick compact_ticks = result.compact_done - result.insert_done;
    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x", result.fingerprint);

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
    report.AddMetric("csd.compact." + point + ".fingerprint",
                     static_cast<std::uint64_t>(result.fingerprint));

    table.AddRow({std::to_string(cores), FormatSeconds(compact_ticks),
                  FormatRatio(static_cast<double>(one_core_ticks) /
                              static_cast<double>(compact_ticks)),
                  FormatSeconds(stats.phase1_ticks),
                  FormatSeconds(stats.phase2_ticks),
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
  return (monotone && phase2_scales && identical) ? 0 : 1;
}
