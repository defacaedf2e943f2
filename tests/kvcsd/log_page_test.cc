// In-band telemetry log pages (DESIGN.md §14): a kGetLogPage pull over
// the NVMe wire must decode to exactly what the device's stats registry
// held at the tick the page was assembled — equal counters, bit-identical
// histogram digests — and the health page must carry the windowed
// utilization gauges.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "nvme/log_page.h"
#include "sim/stats.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  return c;
}

struct Fixture {
  sim::Simulation sim;
  DeviceConfig cfg = SmallDevice();
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  Fixture() { dev.Start(); }
};

sim::Task<void> MixedWorkload(client::Client* db, std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace("lp");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  for (std::uint64_t i = 0; i < count; i += 7) {
    auto got = co_await ks->Get(MakeFixedKey(i));
    KVCSD_CO_ASSERT_OK(got);
  }
}

// Bit-level equality for the doubles in a digest: the codec round-trips
// them through bit_cast, so "close" is not good enough.
void ExpectBitIdentical(const sim::HistogramSummary& want,
                        const sim::HistogramSummary& got,
                        const std::string& name) {
  EXPECT_EQ(want.count, got.count) << name;
  EXPECT_EQ(want.sum, got.sum) << name;
  EXPECT_EQ(want.min, got.min) << name;
  EXPECT_EQ(want.max, got.max) << name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.mean),
            std::bit_cast<std::uint64_t>(got.mean))
      << name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.p50),
            std::bit_cast<std::uint64_t>(got.p50))
      << name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.p95),
            std::bit_cast<std::uint64_t>(got.p95))
      << name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.p99),
            std::bit_cast<std::uint64_t>(got.p99))
      << name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.p999),
            std::bit_cast<std::uint64_t>(got.p999))
      << name;
}

TEST(LogPageTest, StatsPagePullMatchesSameTickSnapshot) {
  Fixture f;
  testutil::RunSim(f.sim, MixedWorkload(&f.db, 200));

  // The sim is quiesced (all commands and background work drained), so
  // the registry is frozen until the pull itself runs. The page contains
  // the device.* registry minus device.stage.* histograms, which the pull
  // command mutates mid-flight; the pull's own device.cmd.get_log_page
  // increment lands after the page is assembled, so this pre-pull
  // snapshot is the page's exact expected content.
  std::vector<std::pair<std::string, std::uint64_t>> want_counters;
  for (const auto& [name, c] : f.sim.stats().counters()) {
    if (name.rfind("device.", 0) == 0) {
      want_counters.emplace_back(name, c.value());
    }
  }
  std::vector<std::pair<std::string, sim::HistogramSummary>> want_hists;
  for (const auto& [name, h] : f.sim.stats().histograms()) {
    if (name.rfind("device.", 0) == 0 &&
        name.rfind("device.stage.", 0) != 0) {
      want_hists.emplace_back(name, h.Summary());
    }
  }
  ASSERT_FALSE(want_counters.empty());
  ASSERT_FALSE(want_hists.empty());

  nvme::StatsPage page;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, nvme::StatsPage* out) -> sim::Task<void> {
        auto got = co_await db->GetStats();
        KVCSD_CO_ASSERT_OK(got);
        *out = *std::move(got);
      }(&f.db, &page));

  EXPECT_EQ(page.version, nvme::kLogPageVersion);
  EXPECT_GT(page.tick, 0u);
  ASSERT_EQ(page.counters.size(), want_counters.size());
  for (std::size_t i = 0; i < want_counters.size(); ++i) {
    EXPECT_EQ(page.counters[i].first, want_counters[i].first);
    EXPECT_EQ(page.counters[i].second, want_counters[i].second)
        << want_counters[i].first;
  }
  ASSERT_EQ(page.histograms.size(), want_hists.size());
  for (std::size_t i = 0; i < want_hists.size(); ++i) {
    EXPECT_EQ(page.histograms[i].first, want_hists[i].first);
    ExpectBitIdentical(want_hists[i].second, page.histograms[i].second,
                       want_hists[i].first);
  }
}

TEST(LogPageTest, HealthPageCarriesUtilizationAndDeviceGauges) {
  Fixture f;
  testutil::RunSim(f.sim, MixedWorkload(&f.db, 100));

  nvme::HealthPage page;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, nvme::HealthPage* out) -> sim::Task<void> {
        auto got = co_await db->GetHealth();
        KVCSD_CO_ASSERT_OK(got);
        *out = *std::move(got);
      }(&f.db, &page));

  EXPECT_EQ(page.version, nvme::kLogPageVersion);
  EXPECT_GT(page.tick, 0u);
  ASSERT_FALSE(page.gauges.empty());
  // The pull itself is the only in-flight command at assembly time.
  EXPECT_EQ(page.Gauge("device.inflight_cmds"), 1u);
  // Windowed utilization attribution: every metered resource publishes a
  // capacity gauge (capacity x 1000) alongside its per-class loads.
  EXPECT_EQ(page.Gauge("util.dispatch.capacity"), 1000u);
  EXPECT_GT(page.Gauge("util.soc.capacity"), 0u);
  EXPECT_GT(page.Gauge("util.zns.capacity"), 0u);
  EXPECT_EQ(page.Gauge("util.pcie.h2d.capacity"), 1000u);
  EXPECT_EQ(page.Gauge("util.pcie.d2h.capacity"), 1000u);
  // ZNS role budgets from the zone manager survive the round trip.
  bool has_free_zones = false;
  for (const auto& [name, value] : page.gauges) {
    if (name.find("free_zones") != std::string::npos) has_free_zones = true;
  }
  EXPECT_TRUE(has_free_zones);
}

TEST(LogPageTest, AsyncPullsDecodeLikeSyncOnes) {
  Fixture f;
  testutil::RunSim(f.sim, MixedWorkload(&f.db, 50));
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto hf = co_await db->GetHealthAsync();
    auto sf = co_await db->GetStatsAsync();
    auto health = co_await hf.Await();
    KVCSD_CO_ASSERT_OK(health);
    KVCSD_CO_ASSERT(!health->gauges.empty());
    auto stats = co_await sf.Await();
    KVCSD_CO_ASSERT_OK(stats);
    KVCSD_CO_ASSERT(!stats->counters.empty());
    KVCSD_CO_ASSERT(stats->Counter("device.cmd.kv_store") > 0);
  }(&f.db));
}

TEST(LogPageTest, DecoderRejectsTruncationAndWrongPageId) {
  nvme::HealthPage health;
  health.tick = 42;
  health.gauges = {{"util.soc.host_write", 137}, {"device.inflight_cmds", 1}};
  const std::string enc = nvme::EncodeHealthPage(health);

  // Page-id mismatch: a health payload is not a stats page.
  nvme::StatsPage stats;
  EXPECT_FALSE(nvme::DecodeStatsPage(enc, &stats));

  // Every strict prefix is rejected; the full payload round-trips.
  nvme::HealthPage back;
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(nvme::DecodeHealthPage(enc.substr(0, cut), &back))
        << "cut=" << cut;
  }
  ASSERT_TRUE(nvme::DecodeHealthPage(enc, &back));
  EXPECT_EQ(back.tick, 42u);
  EXPECT_EQ(back.Gauge("util.soc.host_write"), 137u);
  EXPECT_EQ(back.Gauge("absent"), 0u);
}

}  // namespace
}  // namespace kvcsd::device
