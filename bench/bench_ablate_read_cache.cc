// Ablation A6 — device read-path acceleration (DESIGN.md §10): the DRAM
// index-block cache, the compaction-built bloom filter, and the value
// gather fan-out.
//
// A fixed dataset is bulk-loaded and compacted per configuration, then
// three read phases run against it on a fresh testbed each time:
//   scan      a full primary range scan (index prefetch + gather fan-out)
//   hit GETs  point gets over present keys, after the scan warmed the
//             cache — throughput must improve monotonically with cache
//             size (LRU inclusion: a bigger cache keeps a superset)
//   miss GETs point gets above the max key — with bloom on these answer
//             from DRAM; with bloom off each pays an index-block read, so
//             bloom on must be >= 5x faster when the cache is off
// A crc32c fingerprint over scan rows and get results must be identical
// in every configuration: acceleration changes timing, never contents.
//
// Flags: --keys=N (default 96K) --gets=N (default 2048)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
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

// 32-byte value with deterministic id-dependent filler.
std::string ValueFor(std::uint64_t id) {
  std::string v(32, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (id + i * 7) % 26);
  }
  return v;
}

struct SweepResult {
  Tick scan_ticks = 0;
  Tick hit_get_ticks = 0;
  Tick miss_get_ticks = 0;
  std::uint64_t scan_rows = 0;
  std::uint32_t fingerprint = 0;
  bool ok = false;
};

sim::Task<void> Driver(client::Client* db, sim::Simulation* sim,
                       std::uint64_t keys, std::uint64_t gets,
                       SweepResult* out) {
  auto loaded = co_await LoadKeyspace(*db, "ablate_read", ShuffledIds(keys),
                                      ValueFor, {});
  if (!CheckOk(loaded.status(), "load")) co_return;
  client::KeyspaceHandle ks = *loaded;

  std::uint32_t crc = 0;

  // Phase 1: full primary scan. Exercises the index-block prefetch
  // pipeline and the gather fan-out, and warms the cache for phase 2.
  Tick t0 = sim->Now();
  std::vector<std::pair<std::string, std::string>> rows;
  if (!(co_await ks.Scan("", "\x7f", 0, &rows)).ok()) co_return;
  out->scan_ticks = sim->Now() - t0;
  out->scan_rows = rows.size();
  crc = CrcRows(crc, rows);
  rows.clear();

  // Phase 2: point gets over present keys, spread across the whole index
  // (stride coprime to keys so every region is touched).
  std::uint64_t get_stride = 4093;
  while (keys % get_stride == 0) ++get_stride;
  t0 = sim->Now();
  for (std::uint64_t g = 0; g < gets; ++g) {
    const std::uint64_t id = (g * get_stride) % keys;
    auto v = co_await ks.Get(MakeFixedKey(id));
    if (!v.ok()) co_return;
    crc = crc32c::Extend(crc, v->data(), v->size());
  }
  out->hit_get_ticks = sim->Now() - t0;

  // Phase 3: point gets above the max key — every one a definite miss.
  t0 = sim->Now();
  for (std::uint64_t g = 0; g < gets; ++g) {
    auto v = co_await ks.Get(MakeFixedKey(keys + 1 + g));
    if (!v.status().IsNotFound()) co_return;
  }
  out->miss_get_ticks = sim->Now() - t0;

  out->fingerprint = crc;
  out->ok = true;
}

struct Config {
  const char* label;
  std::uint64_t cache_bytes;  // 0 = cache disabled
  std::uint32_t bloom_bits;
  std::uint32_t fanout;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 96 << 10);
  const std::uint64_t gets = flags.GetUint("gets", 2048);
  if (keys == 0 || gets == 0) {
    std::fprintf(stderr, "--keys and --gets must be > 0\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("ablate_read_cache", flags);

  std::printf(
      "Ablation: read-path acceleration (%s keys, %s gets per phase)\n",
      FormatCount(keys).c_str(), FormatCount(gets).c_str());
  Table table("A6: index cache x bloom x gather fan-out",
              {"config", "scan", "hit GETs/s", "miss GETs/s", "hit ratio",
               "fingerprint"});

  // The first four rows sweep ONLY the cache size (the monotone check);
  // the two bloom rows pin cache off + fanout 1 so the miss-path delta is
  // purely the filter; the last row isolates gather fan-out.
  const Config configs[] = {
      {"cache=0,bloom=on,fan=8", 0, 10, 8},
      {"cache=64K,bloom=on,fan=8", 64 << 10, 10, 8},
      {"cache=256K,bloom=on,fan=8", 256 << 10, 10, 8},
      {"cache=1M,bloom=on,fan=8", 1 << 20, 10, 8},
      {"cache=0,bloom=off,fan=1", 0, 0, 1},
      {"cache=0,bloom=on,fan=1", 0, 10, 1},
      {"cache=256K,bloom=on,fan=1", 256 << 10, 10, 1},
  };
  constexpr int kCacheSweep = 4;  // configs[0..3] form the monotone sweep
  constexpr int kBloomOff = 4;
  constexpr int kBloomOn = 5;

  bool all_ok = true;
  bool identical = true;
  bool monotone = true;
  std::uint32_t base_fingerprint = 0;
  Tick prev_hit_ticks = 0;
  Tick sweep_first_hit_ticks = 0;
  Tick sweep_last_hit_ticks = 0;
  Tick bloom_off_miss_ticks = 0;
  Tick bloom_on_miss_ticks = 0;

  for (int c = 0; c < static_cast<int>(std::size(configs)); ++c) {
    const Config& cfg = configs[c];
    TestbedConfig config = TestbedConfig::Scaled();
    config.device.index_cache_enabled = cfg.cache_bytes != 0;
    config.device.index_cache_bytes = cfg.cache_bytes;
    config.device.bloom_bits_per_key = cfg.bloom_bits;
    config.device.gather_fanout = cfg.fanout;

    CsdTestbed bed(config);
    SweepResult result;
    bed.sim().Spawn(Driver(&bed.client(), &bed.sim(), keys, gets, &result));
    bed.sim().Run();

    if (!result.ok) {
      std::fprintf(stderr, "config %s: driver failed\n", cfg.label);
      all_ok = false;
      continue;
    }
    if (c == 0) {
      base_fingerprint = result.fingerprint;
    } else if (result.fingerprint != base_fingerprint) {
      identical = false;
    }
    if (c < kCacheSweep) {
      if (c == 0) {
        sweep_first_hit_ticks = result.hit_get_ticks;
      } else if (result.hit_get_ticks > prev_hit_ticks) {
        monotone = false;
      }
      prev_hit_ticks = result.hit_get_ticks;
      sweep_last_hit_ticks = result.hit_get_ticks;
    }
    if (c == kBloomOff) bloom_off_miss_ticks = result.miss_get_ticks;
    if (c == kBloomOn) bloom_on_miss_ticks = result.miss_get_ticks;

    const double hit_gets_per_sec = static_cast<double>(gets) * 1e9 /
                                    static_cast<double>(result.hit_get_ticks);
    const double miss_gets_per_sec =
        static_cast<double>(gets) * 1e9 /
        static_cast<double>(result.miss_get_ticks);
    const double scan_rows_per_sec =
        static_cast<double>(result.scan_rows) * 1e9 /
        static_cast<double>(result.scan_ticks);
    const std::uint64_t hits =
        bed.sim().stats().counter_value("device.read_cache.hits");
    const std::uint64_t misses =
        bed.sim().stats().counter_value("device.read_cache.misses");
    const double hit_ratio =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);

    std::string point = "c" + std::to_string(c);
    report.AddMetric("csd.read." + point + ".hit_gets_per_sec",
                     hit_gets_per_sec);
    report.AddMetric("csd.read." + point + ".miss_gets_per_sec",
                     miss_gets_per_sec);
    report.AddMetric("csd.read." + point + ".scan_rows_per_sec",
                     scan_rows_per_sec);
    report.AddMetric("csd.read." + point + ".cache_hit_ratio", hit_ratio);
    report.AddMetric("csd.read." + point + ".fingerprint",
                     static_cast<std::uint64_t>(result.fingerprint));
    if (c == kCacheSweep - 1) {
      // Reference config for the raw device counters: full cache.
      report.AddStats(bed.sim().stats(), "device.read_cache.");
      report.AddStats(bed.sim().stats(), "device.bloom.");
      report.AddStats(bed.sim().stats(), "device.gather.");
      report.AddStats(bed.sim().stats(), "device.prefetch.");
    }

    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x", result.fingerprint);
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.2f", hit_ratio);
    table.AddRow({cfg.label, FormatSeconds(result.scan_ticks),
                  FormatCount(static_cast<std::uint64_t>(hit_gets_per_sec)),
                  FormatCount(static_cast<std::uint64_t>(miss_gets_per_sec)),
                  ratio, fp});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();

  const bool cache_helps = sweep_last_hit_ticks < sweep_first_hit_ticks;
  const bool bloom_5x =
      bloom_on_miss_ticks > 0 &&
      bloom_off_miss_ticks >= 5 * bloom_on_miss_ticks;
  std::printf("\nhit-GET throughput monotone with cache size: %s\n",
              monotone ? "yes" : "NO (regression!)");
  std::printf("largest cache strictly faster than no cache: %s\n",
              cache_helps ? "yes" : "NO (regression!)");
  std::printf("bloom >= 5x on all-miss gets (cache off): %s (%.1fx)\n",
              bloom_5x ? "yes" : "NO (regression!)",
              bloom_on_miss_ticks == 0
                  ? 0.0
                  : static_cast<double>(bloom_off_miss_ticks) /
                        static_cast<double>(bloom_on_miss_ticks));
  std::printf("contents identical across configs: %s\n",
              identical ? "yes" : "NO (determinism bug!)");
  return (all_ok && identical && monotone && cache_helps && bloom_5x) ? 0 : 1;
}
