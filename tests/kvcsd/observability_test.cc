// Device-path observability across power cycles: the structured log ring
// is owned by the Simulation and must survive Device::Restart, and the
// stats/telemetry snapshots must stay consistent across a crash — no
// leaked in-flight commands, no double-counted stages, no gauge source
// left behind by the dead incarnation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "kvcsd/device.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/telemetry.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

sim::Task<void> LoadAndSync(client::Client* db, const std::string& name,
                            std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

sim::Task<void> RecoverAndRead(Device* dev, client::Client* db,
                               const std::string& name,
                               std::uint64_t count) {
  KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto stat = co_await ks->GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  KVCSD_CO_ASSERT(stat->num_kvs >= count);
}

bool LogContains(const sim::Log& log, const std::string& needle) {
  for (const auto& e : log.Entries()) {
    if (e.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ObservabilityTest, LogRingSurvivesDeviceRestart) {
  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  testutil::RunSim(f.sim(), LoadAndSync(&f.client(), "obs", 100));

  f.sim().log().Info("test", "pre-crash marker");
  const std::uint64_t written_before = f.sim().log().total_written();
  injector.Crash();
  f.PowerCycle();
  testutil::RunSim(f.sim(),
                   RecoverAndRead(&f.dev(), &f.client(), "obs", 100));

  // The ring lives on the Simulation, not the Device: the pre-crash
  // breadcrumb is still there, and recovery appended after it.
  EXPECT_TRUE(LogContains(f.sim().log(), "pre-crash marker"));
  EXPECT_GT(f.sim().log().total_written(), written_before);
  bool recovery_logged = false;
  for (const auto& e : f.sim().log().Entries()) {
    if (e.component == "recovery") recovery_logged = true;
  }
  EXPECT_TRUE(recovery_logged);
}

TEST(ObservabilityTest, StatsConsistentAcrossPowerCycle) {
  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  sim::Stats& stats = f.sim().stats();
  testutil::RunSim(f.sim(), LoadAndSync(&f.client(), "pc", 150));

  // Idle after the run: nothing in flight anywhere.
  EXPECT_EQ(f.dev().inflight_commands(), 0u);
  EXPECT_EQ(f.queue().inflight(), 0u);
  EXPECT_EQ(f.queue().sq_depth(), 0u);
  const std::uint64_t submits_before =
      stats.histogram("client.stage.submit_ns").count();
  EXPECT_EQ(stats.histogram("client.stage.complete_ns").count(),
            submits_before);

  injector.Crash();
  f.PowerCycle();
  testutil::RunSim(f.sim(),
                   RecoverAndRead(&f.dev(), &f.client(), "pc", 150));

  // Post-cycle: every submitted command completed exactly once (a leaked
  // in-flight command or a double-counted completion breaks equality),
  // and the per-stage decomposition stayed paired.
  EXPECT_EQ(f.dev().inflight_commands(), 0u);
  EXPECT_EQ(f.queue().inflight(), 0u);
  const std::uint64_t submits = stats.histogram("client.stage.submit_ns")
                                    .count();
  EXPECT_GT(submits, submits_before);
  EXPECT_EQ(stats.histogram("client.stage.complete_ns").count(), submits);
  EXPECT_EQ(stats.histogram("device.stage.dispatch_ns").count(),
            stats.histogram("device.stage.exec_ns").count());
}

TEST(ObservabilityTest, TelemetrySourceReplacedAcrossRestart) {
  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  f.sim().telemetry().Enable(Microseconds(50));
  testutil::RunSim(f.sim(), LoadAndSync(&f.client(), "tm", 80));
  injector.Crash();
  f.PowerCycle();
  testutil::RunSim(f.sim(), RecoverAndRead(&f.dev(), &f.client(), "tm", 80));

  ASSERT_GT(f.sim().telemetry().size(), 0u);
  // Find the gauge id for the NVMe SQ depth, then check the last sample
  // reports it exactly once: the restarted device re-registered under the
  // "device" key and superseded the dead incarnation, so gauges are not
  // duplicated after a power cycle.
  std::uint32_t sq_id = UINT32_MAX;
  const auto& names = f.sim().telemetry().names();
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == "nvme.sq_depth") sq_id = i;
  }
  ASSERT_NE(sq_id, UINT32_MAX);
  const auto& last = f.sim().telemetry().samples().back();
  std::size_t occurrences = 0;
  for (const auto& [id, value] : last.values) {
    if (id == sq_id) ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(ObservabilityTest, TelemetryRingSaturatesCleanlyAcrossRestart) {
  // A deliberately tiny sample ring saturates mid-run and keeps rolling
  // through a power cycle: the drop counter accounts for every evicted
  // sample, and the survivors still carry exactly one "device" source's
  // gauges (the restarted incarnation's).
  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  f.sim().telemetry().Enable(Microseconds(10), /*max_samples=*/16);
  testutil::RunSim(f.sim(), LoadAndSync(&f.client(), "sat", 120));
  injector.Crash();
  f.PowerCycle();
  testutil::RunSim(f.sim(), RecoverAndRead(&f.dev(), &f.client(), "sat", 120));

  EXPECT_EQ(f.sim().telemetry().size(), 16u);
  EXPECT_GT(f.sim().telemetry().dropped(), 0u);
  // Samples remain in tick order after the wrap and the restart.
  Tick prev = 0;
  for (const auto& sample : f.sim().telemetry().samples()) {
    EXPECT_GE(sample.tick, prev);
    prev = sample.tick;
  }
  // The post-restart device's utilization gauges are present exactly once
  // per sample (no duplicate from the dead incarnation).
  std::uint32_t util_id = UINT32_MAX;
  const auto& names = f.sim().telemetry().names();
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == "util.dispatch.dispatch") util_id = i;
  }
  ASSERT_NE(util_id, UINT32_MAX);
  std::size_t occurrences = 0;
  for (const auto& [id, value] : f.sim().telemetry().samples().back().values) {
    if (id == util_id) ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

}  // namespace
}  // namespace kvcsd::device
