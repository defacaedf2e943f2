// In-band telemetry (DESIGN.md §14): the health page pulled over the NVMe
// wire must carry the windowed utilization and device gauges, and its
// decoder must reject truncation, a foreign version and a foreign page id.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "kvcsd/device.h"
#include "nvme/log_page.h"

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

TEST(LogPageTest, HealthPageCarriesUtilizationAndDeviceGauges) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), MixedWorkload(&f.client(), 100));

  nvme::HealthPage page;
  testutil::RunSim(
      f.sim(),
      [](client::Client* db, nvme::HealthPage* out) -> sim::Task<void> {
        auto got = co_await db->GetHealth();
        KVCSD_CO_ASSERT_OK(got);
        *out = *std::move(got);
      }(&f.client(), &page));

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

TEST(LogPageTest, DecoderRejectsTruncationAndWrongPageId) {
  nvme::HealthPage health;
  health.tick = 42;
  health.gauges = {{"util.soc.host_write", 137}, {"device.inflight_cmds", 1}};
  const std::string enc = nvme::EncodeHealthPage(health);

  // Header: u16 version, u32 page id (kHealth = 1), u64 tick. A foreign
  // version or page id is rejected.
  ASSERT_EQ(enc[0], static_cast<char>(nvme::kLogPageVersion));
  ASSERT_EQ(enc[2], 1);
  nvme::HealthPage back;
  std::string foreign = enc;
  foreign[0] = static_cast<char>(nvme::kLogPageVersion + 1);
  EXPECT_FALSE(nvme::DecodeHealthPage(foreign, &back));
  foreign = enc;
  foreign[2] = 2;
  EXPECT_FALSE(nvme::DecodeHealthPage(foreign, &back));

  // Every strict prefix is rejected; the full payload round-trips.
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
