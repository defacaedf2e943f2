// Flight recorder (DESIGN.md §14): a bounded ring of recent command
// summaries that dumps itself — with a utilization snapshot — when an SLO
// rule trips or the fault injector cuts power, and that survives
// Device::Restart so the post-crash dump still shows the pre-crash tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "kvcsd/flight_recorder.h"
#include "sim/fault.h"

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

FlightRecorder::Entry MakeEntry(std::uint64_t cmd_id) {
  FlightRecorder::Entry e;
  e.cmd_id = cmd_id;
  e.opcode = nvme::Opcode::kKvStore;
  e.tick = 1000 * cmd_id;
  e.exec_ns = 500;
  return e;
}

TEST(FlightRecorderTest, RingSaturatesAndKeepsNewestOldestFirst) {
  FlightRecorderConfig cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg);
  EXPECT_EQ(rec.size(), 0u);
  for (std::uint64_t i = 1; i <= 10; ++i) rec.Record(MakeEntry(i));
  EXPECT_EQ(rec.size(), 4u);
  const auto entries = rec.Entries();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].cmd_id, 7 + i);  // oldest first: 7, 8, 9, 10
  }
}

TEST(FlightRecorderTest, BreachRulesMatchConfig) {
  FlightRecorderConfig cfg;
  cfg.slo_exec_ns = 1000;
  cfg.dump_on_busy = true;
  FlightRecorder rec(cfg);

  FlightRecorder::Entry fast = MakeEntry(1);
  fast.exec_ns = 999;
  EXPECT_EQ(rec.BreachReason(fast), nullptr);

  FlightRecorder::Entry slow = MakeEntry(2);
  slow.exec_ns = 1001;
  ASSERT_NE(rec.BreachReason(slow), nullptr);
  EXPECT_STREQ(rec.BreachReason(slow), "slo_exec");

  FlightRecorder::Entry busy = MakeEntry(3);
  busy.status = StatusCode::kBusy;
  ASSERT_NE(rec.BreachReason(busy), nullptr);
  EXPECT_STREQ(rec.BreachReason(busy), "busy");

  // No rules configured: nothing trips, not even errors.
  FlightRecorder rec_off(FlightRecorderConfig{});
  EXPECT_EQ(rec_off.BreachReason(slow), nullptr);
  EXPECT_EQ(rec_off.BreachReason(busy), nullptr);
}

TEST(FlightRecorderTest, DumpCarriesSnapshotAndEntries) {
  FlightRecorderConfig cfg;
  cfg.capacity = 8;
  FlightRecorder rec(cfg);
  rec.set_snapshot_provider(
      [](std::vector<std::pair<std::string, std::uint64_t>>* out) {
        out->emplace_back("util.dispatch.dispatch", 987);
      });
  rec.Record(MakeEntry(41));
  rec.Record(MakeEntry(42));
  const std::string dump = rec.Dump("slo_exec", 123456, "");
  EXPECT_EQ(rec.trips(), 1u);
  EXPECT_EQ(rec.last_dump(), dump);
  EXPECT_NE(dump.find("\"reason\": \"slo_exec\""), std::string::npos);
  EXPECT_NE(dump.find("util.dispatch.dispatch"), std::string::npos);
  EXPECT_NE(dump.find("987"), std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 41"), std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 42"), std::string::npos);
}

// Same restartable fixture shape as observability_test.cc.
struct Fixture {
  sim::Simulation sim;
  sim::FaultInjector faults{11};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  explicit Fixture(FlightRecorderConfig flight) : cfg(SmallDevice()) {
    cfg.zns.faults = &faults;
    cfg.flight = flight;
    qps.push_back(
        std::make_unique<nvme::QueueSet>(&sim, nvme::QueueSetConfig{}));
    devs.push_back(std::make_unique<Device>(&sim, cfg, qps.back().get()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }

  Device* dev() { return devs.back().get(); }

  void Restart() {
    qps.push_back(
        std::make_unique<nvme::QueueSet>(&sim, nvme::QueueSetConfig{}));
    devs.push_back(
        Device::Restart(&sim, cfg, qps.back().get(), *devs.back()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }
};

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

TEST(FlightRecorderDeviceTest, SloBreachTripsDumpAndCounter) {
  FlightRecorderConfig flight;
  flight.slo_exec_ns = 1;  // every command breaches
  // A dump path makes every trip also land on disk (<path>.<trip>.json) —
  // the files CI uploads as artifacts when a job fails.
  flight.dump_path = "flight_recorder_test.flight";
  Fixture f(flight);
  testutil::RunSim(f.sim, PutSome(f.db.get(), "slo", 20));

  EXPECT_GT(f.dev()->flight().trips(), 0u);
  EXPECT_EQ(f.sim.stats().counter_value("device.flight.trips_total"),
            f.dev()->flight().trips());
  const std::string& dump = f.dev()->flight().last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"slo_exec\""), std::string::npos);
  EXPECT_NE(dump.find("\"utilization\""), std::string::npos);
  EXPECT_NE(dump.find("util.dispatch.dispatch"), std::string::npos);

  std::ifstream on_disk("flight_recorder_test.flight." +
                        std::to_string(f.dev()->flight().trips()) + ".json");
  ASSERT_TRUE(on_disk.good());
  std::string file_dump((std::istreambuf_iterator<char>(on_disk)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(file_dump, dump);
}

TEST(FlightRecorderDeviceTest, SweptCrashPointDumpsAndRingSurvivesRestart) {
  // Warm up once without faults armed to learn how many crash points the
  // workload hits, then re-run with the cut armed mid-sweep.
  std::uint64_t hits = 0;
  {
    Fixture warm((FlightRecorderConfig()));
    testutil::RunSim(warm.sim, PutSome(warm.db.get(), "cp", 40));
    hits = warm.faults.hits();
  }
  ASSERT_GT(hits, 0u);

  Fixture f((FlightRecorderConfig()));
  f.faults.ArmCrashAtHit(hits / 2 + 1);
  testutil::RunSim(f.sim, PutIgnoringErrors(f.db.get(), "cp", 40));
  ASSERT_TRUE(f.faults.crashed());
  EXPECT_FALSE(f.faults.crash_point().empty());

  // The crash hook dumped the ring with the crash point attached.
  EXPECT_GE(f.dev()->flight().trips(), 1u);
  const std::string dump = f.dev()->flight().last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find(f.faults.crash_point()), std::string::npos);

  // The ring is shared with the next incarnation: pre-crash entries stay
  // readable and post-restart commands append after them.
  const std::size_t before = f.dev()->flight().size();
  ASSERT_GT(before, 0u);
  const Tick last_precrash_tick = f.dev()->flight().Entries().back().tick;
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, PutSome(f.db.get(), "cp2", 10));
  EXPECT_GE(f.dev()->flight().size(), before);
  // Sim time is monotonic across the power cycle, so new entries sort
  // after the pre-crash tail.
  EXPECT_GT(f.dev()->flight().Entries().back().tick, last_precrash_tick);
}

}  // namespace
}  // namespace kvcsd::device
