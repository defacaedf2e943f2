// Property sweeps over the KV-CSD device: for a grid of dataset sizes,
// value sizes, DRAM budgets, and cluster widths, the device must preserve
// every invariant an ordered KV store promises:
//   P1  every inserted key is retrievable with its exact value
//   P2  absent keys are NotFound
//   P3  range scans return exactly the sorted window
//   P4  secondary queries return exactly the matching records
//   P5  metadata (num_kvs) matches ground truth
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "common/random.h"
#include "harness/testbed.h"
#include "kvcsd/device.h"

namespace kvcsd::device {
namespace {

struct PropertyCase {
  std::uint64_t keys;
  std::uint32_t value_bytes;
  std::uint64_t dram_bytes;        // sort-run budget driver
  std::uint32_t zones_per_cluster;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << "keys=" << c.keys << " value=" << c.value_bytes
      << " dram=" << c.dram_bytes << " width=" << c.zones_per_cluster;
}

class CsdPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(CsdPropertyTest, OrderedStoreInvariantsHold) {
  const PropertyCase& param = GetParam();

  DeviceConfig config;
  config.zns.zone_size = MiB(1);
  config.zns.num_zones = 512;
  config.zns.nand.channels = 8;
  config.dram_bytes = param.dram_bytes;
  config.write_buffer_bytes = KiB(16);
  config.zones.zones_per_cluster = param.zones_per_cluster;

  harness::CsdTestbed bed(testutil::Bed(config));

  // Ground truth: random keys (with collisions -> last write wins is NOT
  // exercised here; keys are unique by construction).
  std::map<std::string, std::string> truth;
  Rng rng(param.keys * 31 + param.value_bytes);
  while (truth.size() < param.keys) {
    const std::string key = MakeFixedKey(rng.Next() % (param.keys * 16));
    if (truth.contains(key)) continue;  // keep marker values unique
    std::string value(param.value_bytes, 'x');
    for (std::size_t i = 0; i < value.size(); ++i) {
      value[i] = static_cast<char>('a' + ((key[7] + i) & 0xf));
    }
    // f32 marker at offset value_bytes-4 for the secondary test (P4).
    const float marker = static_cast<float>(truth.size());
    std::memcpy(value.data() + value.size() - 4, &marker, 4);
    truth[key] = value;
  }

  testutil::RunSim(
      bed.sim(),
      [](client::Client* c, const std::map<std::string, std::string>* data,
         std::uint32_t value_bytes) -> sim::Task<void> {
        auto ks = (co_await c->CreateKeyspace("prop")).value();
        auto writer = ks.NewBulkWriter();
        for (const auto& [key, value] : *data) {
          EXPECT_TRUE((co_await writer.Add(key, value)).ok());
        }
        EXPECT_TRUE((co_await writer.Drain()).ok());
        EXPECT_TRUE((co_await ks.Compact()).ok());
        EXPECT_TRUE((co_await ks.WaitCompaction()).ok());

        // P5: metadata.
        auto stat = co_await ks.GetStat();
        EXPECT_TRUE(stat.ok());
        EXPECT_EQ(stat->num_kvs, data->size());

        // P1: sampled point lookups (every 7th key plus both extremes).
        std::size_t index = 0;
        for (const auto& [key, value] : *data) {
          if (index % 7 == 0 || index == data->size() - 1) {
            auto got = co_await ks.Get(key);
            EXPECT_TRUE(got.ok()) << "missing key #" << index;
            if (got.ok()) {
              EXPECT_EQ(*got, value);
            }
          }
          ++index;
        }

        // P2: absent keys.
        auto missing = co_await ks.Get(MakeFixedKey(~0ull - 5));
        EXPECT_TRUE(missing.status().IsNotFound());

        // P3: a mid-range scan equals the ground-truth window.
        auto lo_it = std::next(data->begin(),
                               static_cast<std::ptrdiff_t>(data->size() / 3));
        auto hi_it = std::next(
            data->begin(), static_cast<std::ptrdiff_t>(data->size() / 2));
        std::vector<std::pair<std::string, std::string>> scanned;
        EXPECT_TRUE(
            (co_await ks.Scan(lo_it->first, hi_it->first, 0, &scanned))
                .ok());
        auto expect_it = lo_it;
        std::size_t i = 0;
        for (; expect_it != std::next(hi_it); ++expect_it, ++i) {
          if (i >= scanned.size()) break;
          EXPECT_EQ(scanned[i].first, expect_it->first);
          EXPECT_EQ(scanned[i].second, expect_it->second);
        }
        EXPECT_EQ(
            scanned.size(),
            static_cast<std::size_t>(std::distance(lo_it, hi_it)) + 1);

        // P4: secondary query on the trailing f32 marker: markers 10..19.
        EXPECT_TRUE((co_await ks.CreateSecondaryIndexF32(
                         "marker", value_bytes - 4))
                        .ok());
        std::vector<std::pair<std::string, std::string>> hits;
        EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32(
                         "marker", 10.0f, 19.5f, 0, &hits))
                        .ok());
        EXPECT_EQ(hits.size(), data->size() >= 20 ? 10u : 0u);
      }(&bed.client(), &truth, param.value_bytes));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsdPropertyTest,
    ::testing::Values(
        // keys, value bytes, DRAM budget, zones/cluster
        PropertyCase{200, 32, MiB(64), 4},     // trivially small
        PropertyCase{5000, 32, MiB(64), 4},    // single sort run
        PropertyCase{5000, 32, KiB(256), 4},   // many sort runs
        PropertyCase{5000, 32, KiB(64), 4},    // extreme DRAM pressure
        PropertyCase{3000, 128, MiB(64), 1},   // no striping
        PropertyCase{3000, 128, MiB(64), 8},   // wide striping
        PropertyCase{2000, 1024, KiB(512), 4}, // large values
        PropertyCase{20000, 32, KiB(512), 4})  // larger population
);

}  // namespace
}  // namespace kvcsd::device
