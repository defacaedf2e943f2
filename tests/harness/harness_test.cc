#include "harness/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil.h"
#include "common/keys.h"
#include "sim/fault.h"
#include "harness/flags.h"
#include "harness/json_report.h"
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
  const std::vector<std::uint64_t> ids = SequentialIds(5000);
  RunPhase(bed.sim(), handles.size(), [&](std::size_t t) {
    return [](client::Client* db, const std::vector<std::uint64_t>* load,
              std::size_t thread,
              client::KeyspaceHandle* out) -> sim::Task<void> {
      auto ks = co_await LoadKeyspace(
          *db, "g" + std::to_string(thread), *load,
          [](std::uint64_t) { return std::string(32, 'x'); }, {});
      EXPECT_TRUE(ks.ok()) << ks.status().ToString();
      if (ks.ok()) *out = *ks;
    }(&bed.client(), &ids, t, &handles[t]);
  });

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

// A keyspace name is the client's to choose and the device embeds it in
// its device.ks.<name>.* gauges, so every JSON artifact must escape it:
// the telemetry file, the health page and the event-ring dumps all parse,
// and the name reads back intact.
TEST(FlightRecorderHarnessTest, KeyspaceNameIsEscapedInEveryArtifact) {
  const std::string prefix = "harness_test.escape";
  // A control character never reaches an artifact: the device rejects
  // such a name (KeyspaceManagerTest covers every rejected form).
  const std::string name = "q\"uote\\back";
  const std::string gauge = "device.ks." + name + ".num_kvs";
  RemoveFilesWithPrefix(prefix);
  ApplyFlags({"--telemetry=" + prefix + ".telemetry.json",
              "--telemetry_interval_us=1",
              "--health=" + prefix + ".health.json",
              "--flight_dump=" + prefix + ".flight", "--flight_slo_us=1"});
  {
    CsdTestbed bed(SmallTestbed());
    bed.sim().Spawn([](CsdTestbed* b, std::string ks_name) -> sim::Task<void> {
      auto rejected = co_await b->client().CreateKeyspace(ks_name + "\nline");
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
      auto ks = co_await b->client().CreateKeyspace(ks_name);
      EXPECT_TRUE(ks.ok()) << ks.status().ToString();
      if (!ks.ok()) co_return;
      for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_TRUE((co_await ks->Put(MakeFixedKey(i), "v")).ok());
      }
    }(&bed, name));
    bed.sim().Run();
  }
  ApplyFlags({});

  auto parse = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Result<JsonValue> doc = ParseJson(text.str());
    EXPECT_TRUE(doc.ok()) << path << ": " << doc.status().ToString();
    return doc.ok() ? *doc : JsonValue();
  };
  const JsonValue health = parse(prefix + ".health.json");
  const JsonValue* gauges = health.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->Find(gauge), nullptr);

  const JsonValue telemetry = parse(prefix + ".telemetry.json");
  const JsonValue* names = telemetry.Find("names");
  ASSERT_NE(names, nullptr);
  EXPECT_TRUE(std::any_of(
      names->elements().begin(), names->elements().end(),
      [&](const JsonValue& n) { return n.string_value() == gauge; }));

  std::size_t dumps_naming_it = 0;
  for (const std::string& file : FilesWithPrefix(prefix + ".flight")) {
    const JsonValue dump = parse(file);
    const JsonValue* util = dump.Find("utilization");
    ASSERT_NE(util, nullptr) << file;
    if (util->Find(gauge) != nullptr) ++dumps_naming_it;
  }
  EXPECT_GT(dumps_naming_it, 0u);
}

// Value with the f32 energy (id % 100) at byte 28.
std::string EnergyValue(std::uint64_t id) {
  std::string v(28, 'e');
  const float energy = static_cast<float>(id % 100);
  char raw[4];
  std::memcpy(raw, &energy, 4);
  v.append(raw, 4);
  return v;
}

TEST(WorkloadTest, LoadKeyspaceLoadsTheIdsAndBuildsFusedIndexes) {
  CsdTestbed bed(TestbedConfig::Scaled());
  const std::vector<std::uint64_t> ids = ShuffledIds(3000);
  std::vector<std::uint64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, SequentialIds(3000));  // a permutation of 0..n-1
  EXPECT_NE(ids, SequentialIds(3000));

  const std::vector<nvme::SecondaryIndexSpec> indexes = {
      nvme::F32Index("energy", 28)};
  auto ks = testutil::RunSim(
      bed.sim(), LoadKeyspace(bed.client(), "loaded", ids, EnergyValue,
                              indexes));
  ASSERT_TRUE(ks.ok()) << ks.status().ToString();
  auto stat = testutil::RunSim(bed.sim(), ks->GetStat());
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->num_kvs, 3000u);
  EXPECT_EQ(stat->state, "COMPACTED");

  // The fused index answers: energies 10..12 are ids = 10..12 mod 100.
  client::Rows rows;
  ASSERT_TRUE(testutil::RunSim(bed.sim(), ks->QuerySecondaryRangeF32(
                                              "energy", 10.0f, 12.0f, 0,
                                              &rows))
                  .ok());
  EXPECT_EQ(rows.size(), 90u);
  for (const auto& [key, value] : rows) {
    EXPECT_EQ(value, EnergyValue(FixedKeyId(key)));
  }
  EXPECT_EQ(CrcRows(0, rows), CrcRows(CrcRows(0, {rows.front()}),
                                      client::Rows(rows.begin() + 1,
                                                   rows.end())));
}

// The first append of a fresh device is the new keyspace's metadata
// persist, so failing it fails the create step, and the status says so.
TEST(WorkloadTest, LoadKeyspaceNamesTheStepAnAppendErrorFailed) {
  sim::FaultInjector faults;
  TestbedConfig config = SmallTestbed();
  config.device.zns.faults = &faults;
  CsdTestbed bed(config);
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  faults.AddErrorRule(rule);
  auto ks = testutil::RunSim(
      bed.sim(), LoadKeyspace(bed.client(), "doomed", SequentialIds(2000),
                              EnergyValue, {}));
  EXPECT_EQ(faults.errors_injected(), 1u);
  ASSERT_FALSE(ks.ok());
  EXPECT_EQ(ks.status().code(), StatusCode::kIoError);
  EXPECT_EQ(ks.status().message(), "create: " + rule.message);
}

// A failed keyspace create is counted, not fatal: the first append is a
// create's metadata persist. The thread that hit it skips its load and
// every barrier still passes, so the run returns.
TEST(WorkloadTest, CsdInsertCountsAFailedCreate) {
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared keyspace" : "keyspace per thread");
    sim::FaultInjector faults;
    TestbedConfig config = SmallTestbed();
    config.device.zns.faults = &faults;
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    faults.AddErrorRule(rule);
    InsertSpec spec;
    spec.total_keys = 2000;
    spec.threads = 2;
    spec.shared_keyspace = shared;
    const CsdInsertOutcome outcome = RunCsdInsert(config, 8, spec);
    EXPECT_EQ(faults.errors_injected(), 1u);
    EXPECT_GE(outcome.failed, 1u);
    EXPECT_GE(outcome.compaction_done, outcome.insert_done);
  }
}

// A create whose metadata persist fails leaves no keyspace behind: an
// open finds none, and a retried create makes one that takes writes and
// survives a power cycle.
TEST(WorkloadTest, FailedCreateLeavesNoKeyspace) {
  sim::FaultInjector faults;
  TestbedConfig config = SmallTestbed();
  config.device.zns.faults = &faults;
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  faults.AddErrorRule(rule);
  CsdTestbed bed(config);
  testutil::RunSim(bed.sim(), [](CsdTestbed* tb) -> sim::Task<void> {
    auto created = co_await tb->client().CreateKeyspace("ghost");
    KVCSD_CO_ASSERT(created.status().code() == StatusCode::kIoError);
    auto opened = co_await tb->client().OpenKeyspace("ghost");
    KVCSD_CO_ASSERT(opened.status().IsNotFound());
    auto retried = co_await tb->client().CreateKeyspace("ghost");
    KVCSD_CO_ASSERT_OK(retried);
    KVCSD_CO_ASSERT_OK(co_await retried->Put("k", "v"));
  }(&bed));
  EXPECT_EQ(faults.errors_injected(), 1u);
  EXPECT_EQ(bed.dev().keyspaces().size(), 1u);

  bed.PowerCycle();
  testutil::RunSim(bed.sim(), [](CsdTestbed* tb) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await tb->dev().Recover());
    auto opened = co_await tb->client().OpenKeyspace("ghost");
    KVCSD_CO_ASSERT_OK(opened);
  }(&bed));
  EXPECT_EQ(bed.dev().keyspaces().size(), 1u);
}

// One append error at any point of a load fails the load. The load makes
// 86 appends: the create persist, the log flushes of the bulk load, then
// the compaction's outputs and persists; the skips 1..80 reach into the
// compaction. A flush error is latched until the compaction's drain, so
// these fail the compaction, which reaches the host through
// WaitCompaction. Each status is the injected error, prefixed with the
// name of the step it failed.
TEST(WorkloadTest, LoadKeyspaceFailsAtEveryInjectedAppendError) {
  const std::set<std::string> steps = {"create", "bulk load", "drain",
                                       "compact", "wait compaction"};
  for (std::uint64_t k = 1; k <= 80; ++k) {
    SCOPED_TRACE("skip=" + std::to_string(k));
    sim::FaultInjector faults;
    TestbedConfig config = SmallTestbed();
    config.device.zns.faults = &faults;
    CsdTestbed bed(config);
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    rule.skip = k;
    faults.AddErrorRule(rule);
    auto ks = testutil::RunSim(
        bed.sim(), LoadKeyspace(bed.client(), "doomed", SequentialIds(1600),
                                EnergyValue, {}));
    EXPECT_EQ(faults.errors_injected(), 1u);
    ASSERT_FALSE(ks.ok());
    EXPECT_EQ(ks.status().code(), StatusCode::kIoError);
    const std::string message = ks.status().message();
    const std::size_t colon = message.find(": ");
    ASSERT_NE(colon, std::string::npos) << message;
    const std::string step = message.substr(0, colon);
    EXPECT_TRUE(steps.contains(step)) << message;
    EXPECT_EQ(message.substr(colon + 2), rule.message);
  }
}

// Every series a 2-shard fleet records names the shard it belongs to,
// so one name means one device's series at 1 and at N devices.
TEST(ShardedTestbedTest, EverySeriesNameIsPerShardOrFleetLevel) {
  ShardedTestbedConfig config;
  config.shard = SmallTestbed();
  config.num_shards = 2;
  ShardedTestbed fleet(config);
  testutil::RunSim(fleet.sim(), [](ShardedTestbed* bed) -> sim::Task<void> {
    auto ks = co_await bed->router().CreateKeyspace("fleet");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < 64; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), EnergyValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    for (std::uint64_t i = 0; i < 64; i += 7) {
      KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(i)));
    }
    client::Rows rows;
    KVCSD_CO_ASSERT_OK(
        co_await ks->Scan(MakeFixedKey(0), MakeFixedKey(63), 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 64);
  }(&fleet));

  // Fleet-level by design:
  //   router.     the router's routing, scatter-gather and retry series;
  //   util.host.  the host CPU pool every shard's client shares.
  const std::vector<std::string> fleet_level = {"router.", "util.host."};
  std::vector<std::string> names;
  for (const auto& [name, counter] : fleet.sim().stats().counters()) {
    names.push_back(name);
  }
  for (const auto& [name, histogram] : fleet.sim().stats().histograms()) {
    names.push_back(name);
  }
  sim::TelemetrySampler::Gauges gauges;
  fleet.sim().telemetry().Collect(&gauges);
  EXPECT_FALSE(gauges.empty());
  for (const auto& [name, value] : gauges) names.push_back(name);

  std::vector<std::uint64_t> per_shard(config.num_shards, 0);
  for (const std::string& name : names) {
    bool named = false;
    for (std::uint32_t i = 0; i < config.num_shards; ++i) {
      const std::string shard = "shard" + std::to_string(i) + ".";
      for (const std::string& prefix :
           {shard, "client." + shard, "util." + shard}) {
        if (name.starts_with(prefix)) {
          named = true;
          ++per_shard[i];
        }
      }
    }
    for (const std::string& prefix : fleet_level) {
      named = named || name.starts_with(prefix);
    }
    EXPECT_TRUE(named) << name;
  }
  for (std::uint32_t i = 0; i < config.num_shards; ++i) {
    EXPECT_GT(per_shard[i], 0u) << "shard " << i;
  }
}

}  // namespace
}  // namespace kvcsd::harness
