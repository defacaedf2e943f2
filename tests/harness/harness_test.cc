#include "harness/workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/keys.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "harness/sharded_testbed.h"
#include "harness/tracing.h"

namespace kvcsd::harness {
namespace {

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--keys=12345", "--scale=0.5", "--full",
                        "--name=abc", "positional"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetUint("keys", 0), 12345u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_TRUE(flags.GetBool("full"));
  EXPECT_FALSE(flags.GetBool("absent"));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetUint("missing", 42), 42u);
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(FormatSeconds(Seconds(2)), "2.00 s");
  EXPECT_EQ(FormatSeconds(Milliseconds(5)), "5.00 ms");
  EXPECT_EQ(FormatSeconds(Microseconds(3)), "3.0 us");
  EXPECT_EQ(FormatBytes(GiB(2)), "2.00 GiB");
  EXPECT_EQ(FormatBytes(KiB(3)), "3.0 KiB");
  EXPECT_EQ(FormatBytes(10), "10 B");
  EXPECT_EQ(FormatRatio(4.25), "4.2x");
  EXPECT_EQ(FormatCount(32000000), "32.0M");
  EXPECT_EQ(FormatCount(1000000000ull), "1.0B");
  EXPECT_EQ(FormatCount(12), "12");
}

TEST(WorkloadTest, CsdInsertSmokes) {
  TestbedConfig config = TestbedConfig::Scaled();
  InsertSpec spec;
  spec.total_keys = 20000;
  spec.threads = 4;
  spec.shared_keyspace = true;
  CsdInsertOutcome outcome = RunCsdInsert(config, 8, spec);
  EXPECT_GT(outcome.insert_done, 0u);
  EXPECT_GE(outcome.compaction_done, outcome.insert_done);
  EXPECT_GT(outcome.zns_bytes_written, spec.total_keys * 48);
  EXPECT_GT(outcome.pcie_h2d_bytes, spec.total_keys * 48);
  EXPECT_EQ(outcome.failed, 0u);
}

TEST(WorkloadTest, LsmInsertModesOrdering) {
  TestbedConfig config = TestbedConfig::Scaled();
  // Shrink the tree so this small dataset triggers flushes + compactions.
  config.db_options.memtable_size = KiB(128);
  config.db_options.level_base_size = KiB(512);
  config.db_options.max_file_size = KiB(128);
  InsertSpec spec;
  spec.total_keys = 30000;
  spec.threads = 2;
  spec.shared_keyspace = true;

  LsmInsertOutcome none =
      RunLsmInsert(config, 8, spec, lsm::CompactionMode::kNone);
  LsmInsertOutcome auto_mode =
      RunLsmInsert(config, 8, spec, lsm::CompactionMode::kAuto);
  EXPECT_GT(none.total_done, 0u);
  // Compaction work can only add to the user-visible time.
  EXPECT_GT(auto_mode.total_done, none.total_done);
  EXPECT_GT(auto_mode.compactions, 0u);
  EXPECT_EQ(none.compactions, 0u);
  EXPECT_GT(auto_mode.device_bytes_written, none.device_bytes_written);
  EXPECT_EQ(none.failed, 0u);
  EXPECT_EQ(auto_mode.failed, 0u);
}

TEST(WorkloadTest, MultiKeyspaceInsertScalesOut) {
  TestbedConfig config = TestbedConfig::Scaled();
  InsertSpec one;
  one.total_keys = 20000;
  one.threads = 1;
  one.shared_keyspace = false;
  InsertSpec four;
  four.total_keys = 80000;  // 4x the data over 4 keyspaces
  four.threads = 4;
  four.shared_keyspace = false;

  CsdInsertOutcome t1 = RunCsdInsert(config, 32, one);
  CsdInsertOutcome t4 = RunCsdInsert(config, 32, four);
  // 4x data over 4 keyspaces should take well under 4x the time
  // (parallelism across keyspaces), demonstrating the Fig. 9 scaling.
  EXPECT_LT(t4.insert_done, 3 * t1.insert_done);
  EXPECT_EQ(t1.failed, 0u);
  EXPECT_EQ(t4.failed, 0u);
}

TEST(WorkloadTest, GetRunnersReturnTimeAndTraffic) {
  TestbedConfig config = TestbedConfig::Scaled();
  CsdTestbed bed(config);
  std::vector<client::KeyspaceHandle> handles(2);
  sim::WaitGroup wg(&bed.sim());
  wg.Add(2);
  std::uint64_t load_failed = 0;
  for (std::uint32_t t = 0; t < 2; ++t) {
    bed.sim().Spawn([](CsdTestbed* b, std::uint32_t thread,
                       std::vector<client::KeyspaceHandle>* out,
                       sim::WaitGroup* done,
                       std::uint64_t* failed) -> sim::Task<void> {
      auto check = [failed](const Status& st) {
        if (!st.ok()) ++*failed;
      };
      auto ks = (co_await b->client().CreateKeyspace(
                     "g" + std::to_string(thread)))
                    .value();
      auto writer = ks.NewBulkWriter();
      for (std::uint64_t i = 0; i < 5000; ++i) {
        check(co_await writer.Add(MakeFixedKey(i), std::string(32, 'x')));
      }
      check(co_await writer.Drain());
      check(co_await ks.Compact());
      check(co_await ks.WaitCompaction());
      (*out)[thread] = ks;
      done->Done();
    }(&bed, t, &handles, &wg, &load_failed));
  }
  bed.sim().Run();
  EXPECT_EQ(load_failed, 0u);

  GetSpec spec;
  spec.total_gets = 500;
  spec.keys_per_keyspace = 5000;
  spec.threads = 2;
  QueryOutcome outcome = RunCsdGets(bed, handles, spec);
  EXPECT_GT(outcome.query_time, 0u);
  EXPECT_GT(outcome.device_bytes_read, 0u);
  EXPECT_GT(outcome.pcie_d2h_bytes, 500u * 32);
  // The loader wrote every id the reader draws.
  EXPECT_EQ(outcome.not_found, 0u);
  EXPECT_EQ(outcome.failed, 0u);
}

void ApplyFlags(const std::vector<std::string>& args) {
  std::vector<std::string> storage = {"test"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  ApplyObservabilityFlags(Flags(static_cast<int>(argv.size()), argv.data()));
}

// Files in the working directory whose name starts with `prefix`.
std::vector<std::string> FilesWithPrefix(const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

// Removes what an earlier run left behind.
void RemoveFilesWithPrefix(const std::string& prefix) {
  for (const std::string& name : FilesWithPrefix(prefix)) {
    std::filesystem::remove(name);
  }
}

TestbedConfig SmallTestbed() {
  TestbedConfig c;
  c.device.zns.zone_size = KiB(256);
  c.device.zns.num_zones = 64;
  c.device.zns.nand.channels = 8;
  c.device.dram_bytes = KiB(512);
  c.device.write_buffer_bytes = KiB(2);
  return c;
}

// Every device command of a 2-shard fleet and of two single-device
// testbeds breaches a 1 us SLO. Each trip must land in a file of its own:
// the fleet's shards share one trip counter, and each simulation gets its
// own dump name.
TEST(FlightRecorderHarnessTest, EveryTripWritesItsOwnFile) {
  const std::string prefix = "harness_test.trips.flight";
  RemoveFilesWithPrefix(prefix);
  ApplyFlags({"--flight_dump=" + prefix, "--flight_slo_us=1"});
  std::uint64_t trips = 0;
  {
    ShardedTestbedConfig fleet_config;
    fleet_config.shard = SmallTestbed();
    fleet_config.num_shards = 2;
    ShardedTestbed fleet(fleet_config);
    fleet.sim().Spawn([](ShardedTestbed* bed) -> sim::Task<void> {
      auto ks = co_await bed->router().CreateKeyspace("fleet");
      if (!ks.ok()) co_return;
      for (std::uint64_t i = 0; i < 8; ++i) {
        (void)co_await ks->Put(MakeFixedKey(i), "v");
      }
    }(&fleet));
    fleet.sim().Run();
    for (const char* shard : {"shard0.", "shard1."}) {
      const std::uint64_t shard_trips = fleet.sim().stats().counter_value(
          std::string(shard) + "device.flight.trips_total");
      EXPECT_GT(shard_trips, 0u) << shard;
      trips += shard_trips;
    }
  }
  for (int bed_index = 0; bed_index < 2; ++bed_index) {
    CsdTestbed bed(SmallTestbed());
    bed.sim().Spawn([](CsdTestbed* b) -> sim::Task<void> {
      auto ks = co_await b->client().CreateKeyspace("single");
      if (!ks.ok()) co_return;
      for (std::uint64_t i = 0; i < 4; ++i) {
        (void)co_await ks->Put(MakeFixedKey(i), "v");
      }
    }(&bed));
    bed.sim().Run();
    const std::uint64_t bed_trips =
        bed.sim().stats().counter_value("device.flight.trips_total");
    EXPECT_GT(bed_trips, 0u);
    trips += bed_trips;
  }
  ApplyFlags({});
  EXPECT_EQ(FilesWithPrefix(prefix).size(), trips);
}

// A simulation without a gauge source (the RocksLite testbed) writes no
// health file and takes no file number.
TEST(FlightRecorderHarnessTest, HealthSkipsSimulationsWithoutGauges) {
  const std::string path = "harness_test.skip.health.json";
  RemoveFilesWithPrefix(path);
  ApplyFlags({"--health=" + path});
  { LsmTestbed lsm(SmallTestbed()); }
  { CsdTestbed csd(SmallTestbed()); }
  ApplyFlags({});
  const std::vector<std::string> files = FilesWithPrefix(path);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], path);
}

}  // namespace
}  // namespace kvcsd::harness
