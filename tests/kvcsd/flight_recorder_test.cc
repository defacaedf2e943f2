// The device side of the simulation's event ring (sim/log.h): every
// completed command lands in the ring, an SLO breach or a power cut trips
// one JSON dump with a utilization snapshot, and the ring survives
// Device::Restart so the post-crash history still shows the pre-crash
// tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "harness/flags.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "kvcsd/device.h"
#include "sim/fault.h"
#include "sim/log.h"

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

sim::Task<void> PutSome(client::Client* db, const std::string& name,
                        std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// Best-effort writes for crashing runs: statuses are ignored because the
// power cut fails everything in flight.
sim::Task<void> PutIgnoringErrors(client::Client* db, const std::string& name,
                                  std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  if (!ks.ok()) co_return;
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i));
  }
  (void)co_await ks->Sync();
}

std::vector<sim::Log::Entry> CommandEvents(const sim::Log& log) {
  std::vector<sim::Log::Entry> out;
  for (const sim::Log::Entry& e : log.Entries()) {
    if (e.is_command) out.push_back(e);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

// Dump files in the working directory whose name starts with `prefix`.
std::vector<std::string> DumpFiles(const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

void ApplyFlags(const std::vector<std::string>& args) {
  std::vector<std::string> storage = {"test"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  harness::ApplyObservabilityFlags(
      harness::Flags(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlightRecorderDeviceTest, SloBreachTripsDumpAndCounter) {
  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  sim::Log& log = f.sim().log();
  log.set_slo_exec_ns(1);  // every command breaches
  // A dump path makes every trip also land on disk (<path>.<trip>.json):
  // the files CI uploads as artifacts when a job fails.
  log.set_dump_path("flight_recorder_test.flight");
  testutil::RunSim(f.sim(), PutSome(&f.client(), "slo", 20));

  EXPECT_GT(log.trips(), 0u);
  EXPECT_EQ(f.sim().stats().counter_value("device.flight.trips_total"),
            log.trips());
  const std::string& dump = log.last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"slo_exec\""), std::string::npos);
  EXPECT_NE(dump.find("\"utilization\""), std::string::npos);
  EXPECT_NE(dump.find("util.dispatch.dispatch"), std::string::npos);
  EXPECT_NE(dump.find("\"device.flight.trips\": " +
                      std::to_string(log.trips())),
            std::string::npos);

  EXPECT_EQ(ReadFile("flight_recorder_test.flight." +
                     std::to_string(log.trips()) + ".json"),
            dump);
}

TEST(FlightRecorderDeviceTest, SweptCrashPointDumpsAndRingSurvivesRestart) {
  // Warm up once without faults armed to learn how many crash points the
  // workload hits, then re-run with the cut armed mid-sweep.
  std::uint64_t hits = 0;
  {
    sim::FaultInjector warm_faults(11);
    harness::CsdTestbed warm(testutil::Bed(SmallDevice(), &warm_faults));
    testutil::RunSim(warm.sim(), PutSome(&warm.client(), "cp", 40));
    hits = warm_faults.hits();
  }
  ASSERT_GT(hits, 0u);

  sim::FaultInjector injector(11);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  injector.ArmCrashAtHit(hits / 2 + 1);
  testutil::RunSim(f.sim(), PutIgnoringErrors(&f.client(), "cp", 40));
  ASSERT_TRUE(injector.crashed());
  EXPECT_FALSE(injector.crash_point().empty());

  // The power cut dumped the ring with the crash point attached.
  const sim::Log& log = f.sim().log();
  EXPECT_EQ(log.trips(), 1u);
  const std::string dump = log.last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find(injector.crash_point()), std::string::npos);

  // The ring belongs to the simulation: pre-crash command events stay
  // readable and post-restart commands append after them, under the same
  // device id.
  const std::vector<sim::Log::Entry> before = CommandEvents(log);
  ASSERT_FALSE(before.empty());
  f.PowerCycle();
  testutil::RunSim(f.sim(), [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(&f.dev()));
  testutil::RunSim(f.sim(), PutSome(&f.client(), "cp2", 10));
  const std::vector<sim::Log::Entry> after = CommandEvents(log);
  EXPECT_GE(after.size(), before.size());
  // Sim time is monotonic across the power cycle, so new entries sort
  // after the pre-crash tail.
  EXPECT_GT(after.back().tick, before.back().tick);
  EXPECT_EQ(after.back().command.device, before.back().command.device);
}

// A power cut writes exactly one dump, and that one dump carries both
// kinds of event: the injector's "power cut" breadcrumb and the command
// events up to the cut.
TEST(FlightRecorderDeviceTest, SweptCrashPointWritesOneDumpWithBreadcrumbs) {
  const std::string prefix = "flight_recorder_test.crash.flight";
  for (const std::string& stale : DumpFiles(prefix)) {
    std::filesystem::remove(stale);
  }
  harness::TestbedConfig config;
  config.device = SmallDevice();

  std::uint64_t hits = 0;
  {
    sim::FaultInjector faults(11);
    config.device.zns.faults = &faults;
    harness::CsdTestbed bed(config);
    testutil::RunSim(bed.sim(), PutSome(&bed.client(), "cp", 40));
    hits = faults.hits();
  }
  ASSERT_GT(hits, 0u);

  ApplyFlags({"--flight_dump=" + prefix});
  sim::FaultInjector faults(11);
  config.device.zns.faults = &faults;
  faults.ArmCrashAtHit(hits / 2 + 1);
  std::uint64_t stores_at_cut = 0;
  std::string err;
  {
    harness::CsdTestbed bed(config);
    faults.AddCrashHook([&] {
      stores_at_cut = bed.sim().stats().counter_value("device.cmd.kv_store");
    });
    testing::internal::CaptureStderr();
    testutil::RunSim(bed.sim(), PutIgnoringErrors(&bed.client(), "cp", 40));
    err = testing::internal::GetCapturedStderr();
  }
  ApplyFlags({});
  ASSERT_TRUE(faults.crashed());

  const std::vector<std::string> dumps = DumpFiles(prefix);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(err.find("sim::Log"), std::string::npos)
      << "a second dump went to stderr:\n" << err;
  const std::string dump = ReadFile(dumps[0]);
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find(faults.crash_point()), std::string::npos);
  EXPECT_NE(dump.find("power cut at '" + faults.crash_point() + "'"),
            std::string::npos);
  // Every PUT the device completed before the cut is in the dump.
  ASSERT_GT(stores_at_cut, 0u);
  EXPECT_EQ(CountOccurrences(dump, "\"op\": \"kv_store\""), stores_at_cut);
}

}  // namespace
}  // namespace kvcsd::device
