// The simulation's event ring (sim/log.h): leveled breadcrumbs and device
// command events in one fixed-slot ring, the trip rules, and the JSON dump
// that carries the telemetry registry's gauges.
#include "sim/log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace kvcsd::sim {
namespace {

Log::Command MakeCommand(std::uint64_t cmd_id) {
  Log::Command c;
  c.cmd_id = cmd_id;
  c.op = "kv_store";
  c.exec_ns = 500;
  return c;
}

TEST(LogTest, LevelNames) {
  EXPECT_EQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_EQ(LogLevelName(LogLevel::kWarn), "WARN");
  EXPECT_EQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST(LogTest, EntriesStampedWithBoundClock) {
  Log log;
  Tick now = 0;
  log.BindClock([&now] { return now; });
  now = 123;
  log.Info("device", "first");
  now = 456;
  log.Warn("recovery", "second");

  const std::vector<Log::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].tick, 123u);
  EXPECT_EQ(entries[0].level, LogLevel::kInfo);
  EXPECT_EQ(entries[0].component, "device");
  EXPECT_EQ(entries[0].message, "first");
  EXPECT_EQ(entries[1].tick, 456u);
  EXPECT_EQ(entries[1].level, LogLevel::kWarn);
}

TEST(LogTest, RingEvictsOldestButKeepsSequence) {
  Log log;
  const std::size_t writes = Log::kCapacity + 6;
  for (std::size_t i = 0; i < writes; ++i) {
    log.Info("ring", "entry " + std::to_string(i));
  }
  const std::vector<Log::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), Log::kCapacity);
  EXPECT_EQ(log.total_written(), writes);
  // Oldest-first view of the last kCapacity writes; seq survives eviction.
  EXPECT_EQ(entries.front().seq, 6u);
  EXPECT_EQ(entries.front().message, "entry 6");
  EXPECT_EQ(entries.back().seq, writes - 1);
}

TEST(LogTest, ToStringFormatsOneLinePerEntry) {
  Log log;
  Tick now = 1500;
  log.BindClock([&now] { return now; });
  log.Error("fault", "power cut");
  Log::Command cmd = MakeCommand(7);
  cmd.device = log.DeviceId("shard1.device");
  log.Record(cmd);
  const std::string text = log.ToString();
  EXPECT_NE(text.find("1500 ns"), std::string::npos);
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("fault: power cut"), std::string::npos);
  EXPECT_NE(text.find("cmd: #7 kv_store dev=shard1.device"),
            std::string::npos);
}

TEST(LogTest, ClearResets) {
  Log log;
  log.Info("x", "y");
  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.total_written(), 0u);
}

// Command events and breadcrumbs share the slots: once full, the ring
// overwrites the oldest entry of either kind.
TEST(FlightRecorderTest, RingSaturatesAndKeepsNewestOldestFirst) {
  Log log;
  EXPECT_EQ(log.size(), 0u);
  log.Warn("fault", "injected read error");
  for (std::uint64_t i = 1; i <= Log::kCapacity + 3; ++i) {
    log.Record(MakeCommand(i));
  }
  EXPECT_EQ(log.size(), Log::kCapacity);
  const std::vector<Log::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), Log::kCapacity);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(entries[i].is_command);
    // The breadcrumb and commands 1-3 were overwritten: 4, 5, ... oldest
    // first.
    EXPECT_EQ(entries[i].command.cmd_id, 4 + i);
  }
}

TEST(FlightRecorderTest, BreachRulesMatchConfig) {
  Log log;
  log.set_slo_exec_ns(1000);
  log.set_dump_on_busy(true);

  Log::Command fast = MakeCommand(1);
  fast.exec_ns = 999;
  EXPECT_EQ(log.BreachReason(fast), nullptr);

  Log::Command slow = MakeCommand(2);
  slow.exec_ns = 1001;
  ASSERT_NE(log.BreachReason(slow), nullptr);
  EXPECT_STREQ(log.BreachReason(slow), "slo_exec");

  Log::Command busy = MakeCommand(3);
  busy.status = StatusCode::kBusy;
  ASSERT_NE(log.BreachReason(busy), nullptr);
  EXPECT_STREQ(log.BreachReason(busy), "busy");

  // No rules set: nothing trips, not even errors.
  Log off;
  EXPECT_EQ(off.BreachReason(slow), nullptr);
  EXPECT_EQ(off.BreachReason(busy), nullptr);
}

TEST(FlightRecorderTest, DumpCarriesSnapshotAndEntries) {
  Simulation sim;
  sim.telemetry().AddSource("dev", [](TelemetrySampler::Gauges* out) {
    out->emplace_back("util.dispatch.dispatch", 987);
  });
  Log& log = sim.log();
  log.Info("recovery", "metadata snapshot loaded");
  Log::Command cmd = MakeCommand(41);
  cmd.device = log.DeviceId("device");
  log.Record(cmd);
  cmd.cmd_id = 42;
  log.Record(cmd);
  const std::string dump = log.Dump("slo_exec");
  EXPECT_EQ(log.trips(), 1u);
  EXPECT_EQ(log.last_dump(), dump);
  EXPECT_NE(dump.find("\"reason\": \"slo_exec\""), std::string::npos);
  EXPECT_NE(dump.find("\"util.dispatch.dispatch\": 987"), std::string::npos);
  EXPECT_NE(dump.find("\"message\": \"metadata snapshot loaded\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 41, \"op\": \"kv_store\", "
                      "\"dev\": \"device\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"cmd_id\": 42"), std::string::npos);
  EXPECT_EQ(dump.find("crash_point"), std::string::npos);
}

}  // namespace
}  // namespace kvcsd::sim
