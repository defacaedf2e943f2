// Crash-consistent recovery of the device path (DESIGN.md §8): power
// cycles via Device::Restart + Recover over the surviving ZNS bytes, with
// crashes injected at named points by sim::FaultInjector.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../nvme/round_trip.h"
#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "device_test_peer.h"
#include "kvcsd/device.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallFaultyDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

// A device that can be power-cycled: the first incarnation runs on the
// first queue pair; each Restart() swaps in a fresh incarnation over the
// surviving flash bytes. The fixture's fault injector is always wired.
struct PowerCycleFixture {
  sim::Simulation sim;
  sim::FaultInjector faults{7};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  explicit PowerCycleFixture(DeviceConfig config = SmallFaultyDevice())
      : cfg(config) {
    cfg.zns.faults = &faults;
    faults.set_torn_tail_keep(0.5);
    qps.push_back(
        std::make_unique<nvme::QueueSet>(&sim, nvme::QueueSetConfig{}));
    devs.push_back(std::make_unique<Device>(&sim, cfg, qps.back().get()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }

  Device* dev() { return devs.back().get(); }

  // Simulated power cycle; the caller runs Recover() on the new device.
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

std::string DetValue(std::uint64_t i) { return "value-" + std::to_string(i); }

sim::Task<void> LoadAndSync(client::Client* db, const std::string& name,
                            std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// Recover + open + (compact if needed) + read back `count` keys.
sim::Task<void> RecoverAndVerify(Device* dev, client::Client* db,
                                 const std::string& name,
                                 std::uint64_t count) {
  KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto stat = co_await ks->GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  KVCSD_CO_ASSERT(stat->num_kvs >= count);
  if (stat->state != "COMPACTED") {
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }
  for (std::uint64_t i = 0; i < count; i += count / 7 + 1) {
    auto got = co_await ks->Get(MakeFixedKey(i));
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == DetValue(i));
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  KVCSD_CO_ASSERT(rows.size() >= count);
}

TEST(RecoveryTest, SyncedDataSurvivesPowerCut) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "pc", kKeys));

  f.faults.Crash();  // lights out, mid-nothing: all synced data intact
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "pc", kKeys));
}

// A crash between the sibling-zone reset and the snapshot append must not
// lose the keyspace table: the newest intact snapshot lives in the OTHER
// metadata zone, which the ping-pong never resets.
TEST(RecoveryTest, PingPongSurvivesCrashBetweenResetAndAppend) {
  DeviceConfig cfg = SmallFaultyDevice();
  cfg.zns.zone_size = KiB(4);  // tiny metadata zones: frequent ping-pong
  cfg.write_buffer_bytes = KiB(1);
  PowerCycleFixture f(cfg);

  f.faults.ArmCrashAtPoint("meta.after_reset", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("pp");
        KVCSD_CO_ASSERT_OK(ks);
        // Sync repeatedly; each sync persists a snapshot, filling the
        // 4 KiB metadata zone until the ping-pong (and the armed crash).
        for (std::uint64_t i = 0; i < 200 && !faults->crashed(); ++i) {
          Status put = co_await ks->Put(MakeFixedKey(i), DetValue(i));
          if (!put.ok()) break;
          Status sync = co_await ks->Sync();
          if (!sync.ok()) break;
        }
      }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "meta.after_reset");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        // The table survived in the sibling zone.
        auto ks = co_await db->OpenKeyspace("pp");
        KVCSD_CO_ASSERT_OK(ks);
        auto stat = co_await ks->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        KVCSD_CO_ASSERT(stat->num_kvs >= 1);
        // And the device persists cleanly again after recovery.
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.dev(), f.db.get()));
}

// A power cut that tears the most recent metadata snapshot mid-append:
// recovery must fall back to the previous intact snapshot, and the next
// persist must go to the sibling zone (never appending after the torn
// tail), so a SECOND power cycle still recovers.
TEST(RecoveryTest, TornFinalSnapshotIgnoredAcrossTwoPowerCycles) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 120;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "torn", kKeys));
  // A further sync whose snapshot append is interrupted mid-write: the
  // crash fires before the commit barrier, so the torn-tail hook
  // truncates this exact snapshot.
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("torn");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = kKeys; i < kKeys + 40; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        faults->ArmCrashAtPoint("meta.after_append",
                                faults->hit_count("meta.after_append") + 1);
        Status sync = co_await ks->Sync();
        KVCSD_CO_ASSERT(!sync.ok());
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), "meta.after_append");

  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "torn", kKeys));

  // Recover() persisted again (into the sibling zone). A second cycle
  // must land on that snapshot, not on the torn tail.
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "torn", kKeys));
}

// A crash inside a log flush leaves a torn KLOG frame at the tail of a
// zone. Recovery must drop the fragment, truncate it off the flash (so
// later appends never follow garbage), and keep every intact record.
TEST(RecoveryTest, TornKlogTailTruncatedOnRecovery) {
  PowerCycleFixture f;
  constexpr std::uint64_t kAcked = 100;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "tk", kAcked));
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("tk");
        KVCSD_CO_ASSERT_OK(ks);
        // Crash inside the NEXT flush, right after the KLOG append: the
        // torn-tail hook then truncates that framed record mid-write.
        faults->ArmCrashAtPoint(
            "flush.after_klog",
            faults->hit_count("flush.after_klog") + 1);
        for (std::uint64_t i = kAcked; i < kAcked + 200; ++i) {
          Status put = co_await ks->Put(MakeFixedKey(i), DetValue(i));
          if (!put.ok() || faults->crashed()) break;
          if ((i - kAcked) % 16 == 15) {
            Status sync = co_await ks->Sync();
            if (!sync.ok() || faults->crashed()) break;
          }
        }
      }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "flush.after_klog");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        auto ks = co_await db->OpenKeyspace("tk");
        KVCSD_CO_ASSERT_OK(ks);
        auto stat = co_await ks->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        // Every acknowledged record replayed; the torn frame dropped.
        KVCSD_CO_ASSERT(stat->num_kvs >= kAcked);
        // The zone is clean after truncation: new writes and a full
        // compaction parse the whole chain without corruption.
        for (std::uint64_t i = 500; i < 520; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
        for (std::uint64_t i = 0; i < kAcked; i += 13) {
          auto got = co_await ks->Get(MakeFixedKey(i));
          KVCSD_CO_ASSERT_OK(got);
          KVCSD_CO_ASSERT(*got == DetValue(i));
        }
      }(f.dev(), f.db.get()));
}

std::uint32_t Fingerprint(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::uint32_t crc = 0;
  for (const auto& [key, value] : rows) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
  }
  return crc;
}

sim::Task<void> CompactAndFingerprint(client::Client* db,
                                      const std::string& name,
                                      std::uint32_t* out) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto stat = co_await ks->GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  if (stat->state != "COMPACTED") {
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  *out = Fingerprint(rows);
}

// Crash mid-compaction, restart, recover, re-compact: the result must be
// byte-identical (crc32c over the full scan) to a run that never crashed.
TEST(RecoveryTest, MidCompactionRestartIsDeterministic) {
  constexpr std::uint64_t kKeys = 600;

  // Reference: the same load, compacted without any crash.
  std::uint32_t reference = 0;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadAndSync(ref.db.get(), "det", kKeys));
    testutil::RunSim(ref.sim,
                     CompactAndFingerprint(ref.db.get(), "det", &reference));
  }
  ASSERT_NE(reference, 0u);

  // Crashed run: power dies after phase 1 spilled its sorted runs.
  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "det", kKeys));
  f.faults.ArmCrashAtPoint("compact.after_phase1", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("det");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));

  f.Restart();
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim,
                   CompactAndFingerprint(f.db.get(), "det", &recovered));
  EXPECT_EQ(recovered, reference);
}

// A transient flush failure is surfaced by exactly one Sync, then
// cleared; SyncWithRetry rides over it.
TEST(RecoveryTest, FlushErrorSurfacesOnceThenClears) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("sticky");
        KVCSD_CO_ASSERT_OK(ks);
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1), "v1"));
        // One injected append failure: the flush kicked off by the next
        // Sync fails and latches the error.
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        Status first = co_await ks->Sync();
        KVCSD_CO_ASSERT(!first.ok());
        KVCSD_CO_ASSERT(first.IsRetryable());
        // Surfaced once; a later sync with healthy flushes succeeds
        // instead of failing forever on the stale latched error.
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(2), "v2"));
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());

        // SyncWithRetry hides the transient failure entirely.
        sim::ErrorRule again;
        again.op = sim::FaultOp::kAppend;
        again.times = 1;
        faults->AddErrorRule(again);
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(3), "v3"));
        KVCSD_CO_ASSERT_OK(co_await ks->SyncWithRetry(3));
      }(f.db.get(), &f.faults));
}

// A flush batch that fails on an injected I/O error is re-queued into
// the write buffer: the failed Sync surfaces the error, the retried Sync
// re-flushes the SAME data, and an OK from the retry is a real
// durability promise — the batch survives an immediate power cut.
// (Without the re-queue, the retry would persist an empty buffer, return
// OK, and the batch would be silently gone.)
TEST(RecoveryTest, FailedFlushBatchSurvivesRetriedSync) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 40;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("requeue");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        Status first = co_await ks->Sync();
        KVCSD_CO_ASSERT(!first.ok());
        KVCSD_CO_ASSERT(first.IsRetryable());
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.db.get(), &f.faults));

  // The retried Sync returned OK: everything must survive lights-out.
  f.faults.Crash();
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "requeue", kKeys));
}

// Fails the next metadata-zone append after `skip` of them pass, without a
// power cut.
void FailMetadataAppend(PowerCycleFixture* f, std::uint64_t skip) {
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.zone = f->dev()->keyspaces().current_meta_zone();
  rule.skip = skip;
  f->faults.AddErrorRule(rule);
}

// Reads back every key of a COMPACTED keyspace written by LoadAndSync
// (or, with `value`, by another loader).
sim::Task<void> GetEveryKey(client::Client* db, const std::string& name,
                            std::uint64_t count,
                            std::string (*value)(std::uint64_t) = DetValue) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto got = co_await ks->Get(MakeFixedKey(i));
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == value(i));
  }
}

sim::Task<void> CompactAndWait(client::Client* db, const std::string& name) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

// A compaction whose commit snapshot fails, with the power still on, rolls
// back live: the error comes back, the keyspace is WRITABLE over its
// intact logs, every zone the outputs took is free again, each live
// cluster has one owner, and a retried compaction serves every key.
TEST(RecoveryTest, CompactionCommitPersistErrorRollsBack) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "commit", kKeys));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("commit").value();
  const std::size_t free_before = dev->zones().free_zones();
  const std::uint64_t pidx_appends =
      f.sim.stats().counter_value("zns.pidx.appends");

  // The first metadata append persists COMPACTING; the second, the commit
  // snapshot, fails after every output (PIDX blob included) was written.
  FailMetadataAppend(&f, 1);
  const Status compacted =
      testutil::RunSim(f.sim, DeviceTestPeer::Compact(dev, ks));
  EXPECT_EQ(compacted.code(), StatusCode::kIoError) << compacted.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_GT(f.sim.stats().counter_value("zns.pidx.appends"), pidx_appends);
  EXPECT_EQ(f.sim.stats().counter_value("device.compact.done"), 0u);
  EXPECT_EQ(ks->state, KeyspaceState::kWritable);
  EXPECT_EQ(ks->num_kvs, kKeys);
  EXPECT_TRUE(ks->pidx_clusters.empty());
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);
  // The rollback's own persist succeeded: no series.
  EXPECT_FALSE(
      f.sim.stats().has_counter("device.meta.rollback_persist_failed"));

  testutil::RunSim(f.sim, CompactAndWait(f.db.get(), "commit"));
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  testutil::RunSim(f.sim, GetEveryKey(f.db.get(), "commit", kKeys));
  ExpectClustersOwnedOnce(dev);
}

// When the rollback's own persist fails too, the compaction still fails
// with the commit's error and rolls back live. The lost persist is counted
// and logged, not returned, and recovery rolls the COMPACTING snapshot
// still on flash back over the same intact logs.
TEST(RecoveryTest, FailedRollbackPersistIsCountedAndRecovered) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "rollback", kKeys));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("rollback").value();

  // The first metadata append persists COMPACTING; the commit snapshot and
  // the rollback snapshot after it both fail.
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.zone = dev->keyspaces().current_meta_zone();
  rule.skip = 1;
  rule.times = 2;
  f.faults.AddErrorRule(rule);
  const Status compacted =
      testutil::RunSim(f.sim, DeviceTestPeer::Compact(dev, ks));
  EXPECT_EQ(compacted.code(), StatusCode::kIoError) << compacted.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 2u);
  EXPECT_EQ(ks->state, KeyspaceState::kWritable);
  EXPECT_EQ(
      f.sim.stats().counter_value("device.meta.rollback_persist_failed"), 1u);
  EXPECT_NE(f.sim.log().ToString().find("rollback persist failed"),
            std::string::npos);
  ExpectClustersOwnedOnce(dev);

  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "rollback", kKeys));
  ExpectClustersOwnedOnce(f.dev());
}

// A raw-bytes index over the "value-" prefix plus the first digit, which
// every DetValue carries.
nvme::SecondaryIndexSpec TagIndex() {
  nvme::SecondaryIndexSpec spec;
  spec.name = "tag";
  spec.value_length = 7;
  spec.type = nvme::SecondaryKeyType::kBytes;
  return spec;
}

// The separate secondary-index build commits through one snapshot as
// well. When that snapshot fails, the index is absent, the keyspace still
// answers reads, the build's zones are free again, and a retried build
// succeeds.
TEST(RecoveryTest, SecondaryIndexCommitPersistErrorRollsBack) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "sidx", kKeys));
  testutil::RunSim(f.sim, CompactAndWait(f.db.get(), "sidx"));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("sidx").value();
  const std::size_t free_before = dev->zones().free_zones();

  // The build's only metadata append is its commit snapshot.
  FailMetadataAppend(&f, 0);
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto handle = co_await db->OpenKeyspace("sidx");
    KVCSD_CO_ASSERT_OK(handle);
    Status built = co_await handle->CreateSecondaryIndex(TagIndex());
    KVCSD_CO_ASSERT(built.code() == StatusCode::kIoError);
    std::vector<std::pair<std::string, std::string>> rows;
    Status absent =
        co_await handle->QuerySecondaryRange("tag", "", "\x7f", 0, &rows);
    KVCSD_CO_ASSERT(absent.code() == StatusCode::kNotFound);
  }(f.db.get()));
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_TRUE(ks->secondary_indexes.empty());
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);
  testutil::RunSim(f.sim, GetEveryKey(f.db.get(), "sidx", kKeys));

  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto handle = co_await db->OpenKeyspace("sidx");
    KVCSD_CO_ASSERT_OK(handle);
    KVCSD_CO_ASSERT_OK(co_await handle->CreateSecondaryIndex(TagIndex()));
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(
        co_await handle->QuerySecondaryRange("tag", "", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys);
  }(f.db.get()));
  ExpectClustersOwnedOnce(dev);
}

// Enough 100-byte values that every output chain of a compaction and of
// the tag index build takes several 16 KiB appends per phase-2 batch, so
// they are issued back to back and overlap in the window.
constexpr std::uint64_t kWideKeys = 6000;

DeviceConfig WideDevice() {
  DeviceConfig c = SmallFaultyDevice();
  c.dram_bytes = MiB(8);
  return c;
}

// On WideDevice the tag index's tuples fit the sort budget, so its build
// sorts them in DRAM and writes no TEMP run. A 4 KiB budget makes the
// same build spill dozens of runs and merge them.
DeviceConfig SpilledSidxDevice() {
  DeviceConfig c = WideDevice();
  c.sort_run_bytes = KiB(4);
  return c;
}

// The SIDX builds so far took the path `config` asks for: a resident
// build spills no run, a spilled one several.
void ExpectSidxPath(const sim::Simulation& sim, const DeviceConfig& config) {
  const std::uint64_t spilled =
      sim.stats().counter_value("device.sidx.runs_spilled");
  if (config.sort_run_bytes == 0) {
    EXPECT_EQ(spilled, 0u);
  } else {
    EXPECT_GT(spilled, 1u);
  }
}

std::string WideValue(std::uint64_t i) {
  std::string value = DetValue(i);
  value.resize(100, '.');
  return value;
}

sim::Task<void> LoadWide(client::Client* db, const std::string& name) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < kWideKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), WideValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Drain());
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

enum class Output { kSortedValues, kPidx, kSidx };

const std::vector<ClusterId>& OutputChain(const Keyspace& ks, Output out) {
  switch (out) {
    case Output::kSortedValues:
      return ks.sorted_value_clusters;
    case Output::kPidx:
      return ks.pidx_clusters;
    case Output::kSidx:
      break;
  }
  return ks.secondary_indexes.at("tag").sidx_clusters;
}

// Fails the second append to the first zone of output chain `out`. Zone
// allocation is deterministic, so a clean run of the same steps (`build`
// produces the chain) names the zone. A chain rotates its appends over its
// cluster's zones, so the failing append is one of the chain's fifth to
// eighth: earlier appends of the window are still programming when it
// fails at issue.
template <typename Build>
void FailSecondAppendToChain(PowerCycleFixture* f, Output out, Build build) {
  std::uint32_t zone = 0;
  {
    PowerCycleFixture clean(f->cfg);
    testutil::RunSim(clean.sim, LoadWide(clean.db.get(), "wide"));
    Keyspace* ks = clean.dev()->keyspaces().Find("wide").value();
    build(&clean, ks);
    const std::vector<ClusterId>& chain = OutputChain(*ks, out);
    ASSERT_FALSE(chain.empty());
    zone = clean.dev()->zones().cluster_zones(chain.front()).front();
  }
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.zone = zone;
  rule.skip = 1;
  f->faults.AddErrorRule(rule);
}

std::vector<nvme::SecondaryIndexSpec> FusedTagIndex(bool fused) {
  std::vector<nvme::SecondaryIndexSpec> specs;
  if (fused) specs.push_back(TagIndex());
  return specs;
}

// A compaction whose output append fails while other appends of its
// window are in flight rolls back like any failed compaction: every stage
// and every in-flight append is joined before the outputs are released,
// so no cluster leaks, and a retry succeeds.
void ExpectMidWindowCompactionErrorRollsBack(
    Output out, bool fused, const DeviceConfig& config = WideDevice()) {
  PowerCycleFixture f(config);
  testutil::RunSim(f.sim, LoadWide(f.db.get(), "wide"));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("wide").value();
  const std::size_t free_before = dev->zones().free_zones();
  FailSecondAppendToChain(&f, out, [fused](PowerCycleFixture* clean,
                                            Keyspace* clean_ks) {
    EXPECT_TRUE(testutil::RunSim(clean->sim,
                                 DeviceTestPeer::Compact(clean->dev(),
                                                         clean_ks,
                                                         FusedTagIndex(fused)))
                    .ok());
  });

  const Status compacted = testutil::RunSim(
      f.sim, DeviceTestPeer::Compact(dev, ks, FusedTagIndex(fused)));
  EXPECT_EQ(compacted.code(), StatusCode::kIoError) << compacted.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_EQ(ks->state, KeyspaceState::kWritable);
  EXPECT_EQ(ks->num_kvs, kWideKeys);
  EXPECT_TRUE(ks->sorted_value_clusters.empty());
  EXPECT_TRUE(ks->pidx_clusters.empty());
  EXPECT_TRUE(ks->secondary_indexes.empty());
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);

  ASSERT_TRUE(testutil::RunSim(
                  f.sim, DeviceTestPeer::Compact(dev, ks, FusedTagIndex(fused)))
                  .ok());
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->secondary_indexes.size(), fused ? 1u : 0u);
  testutil::RunSim(f.sim, GetEveryKey(f.db.get(), "wide", kWideKeys,
                                      WideValue));
  ExpectClustersOwnedOnce(dev);
  if (fused) ExpectSidxPath(f.sim, config);
}

TEST(RecoveryTest, MidWindowSortedValuesAppendErrorRollsBack) {
  ExpectMidWindowCompactionErrorRollsBack(Output::kSortedValues, false);
}

TEST(RecoveryTest, MidWindowPidxAppendErrorRollsBack) {
  ExpectMidWindowCompactionErrorRollsBack(Output::kPidx, false);
}

TEST(RecoveryTest, MidWindowFusedSidxAppendErrorRollsBack) {
  ExpectMidWindowCompactionErrorRollsBack(Output::kSidx, true);
}

// The same failure after the fused build's tuples spilled to TEMP: the
// runs' clusters are released along with the rest of the outputs.
TEST(RecoveryTest, MidWindowSpilledFusedSidxAppendErrorRollsBack) {
  ExpectMidWindowCompactionErrorRollsBack(Output::kSidx, true,
                                          SpilledSidxDevice());
}

// The separate index build writes its SIDX blocks through the same
// window. An append failing mid-window leaves the index absent and every
// zone the build took (TEMP runs included, when it spilled) free again; a
// retried build succeeds.
void ExpectMidWindowSidxAppendErrorLeavesIndexAbsent(
    const DeviceConfig& config) {
  auto build_tag_index = [](client::Client* db) -> sim::Task<Status> {
    auto handle = co_await db->OpenKeyspace("wide");
    if (!handle.ok()) co_return handle.status();
    co_return co_await handle->CreateSecondaryIndex(TagIndex());
  };
  PowerCycleFixture f(config);
  testutil::RunSim(f.sim, LoadWide(f.db.get(), "wide"));
  testutil::RunSim(f.sim, CompactAndWait(f.db.get(), "wide"));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("wide").value();
  const std::size_t free_before = dev->zones().free_zones();
  FailSecondAppendToChain(
      &f, Output::kSidx,
      [&build_tag_index](PowerCycleFixture* clean, Keyspace*) {
        testutil::RunSim(clean->sim, CompactAndWait(clean->db.get(), "wide"));
        EXPECT_TRUE(
            testutil::RunSim(clean->sim, build_tag_index(clean->db.get()))
                .ok());
      });

  const Status built = testutil::RunSim(f.sim, build_tag_index(f.db.get()));
  EXPECT_EQ(built.code(), StatusCode::kIoError) << built.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_TRUE(ks->secondary_indexes.empty());
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);

  ASSERT_TRUE(testutil::RunSim(f.sim, build_tag_index(f.db.get())).ok());
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto handle = co_await db->OpenKeyspace("wide");
    KVCSD_CO_ASSERT_OK(handle);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(
        co_await handle->QuerySecondaryRange("tag", "", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kWideKeys);
  }(f.db.get()));
  ExpectClustersOwnedOnce(dev);
  ExpectSidxPath(f.sim, config);
}

TEST(RecoveryTest, MidWindowSidxAppendErrorLeavesIndexAbsent) {
  ExpectMidWindowSidxAppendErrorLeavesIndexAbsent(WideDevice());
}

TEST(RecoveryTest, MidWindowSpilledSidxAppendErrorLeavesIndexAbsent) {
  ExpectMidWindowSidxAppendErrorLeavesIndexAbsent(SpilledSidxDevice());
}

// The separate build's scan gathers one batch of values while it extracts
// the batch before. A value read failing mid-scan fails the build with
// that read's error after the gather in flight is joined: the index is
// absent, the build's zones are free again, and a retried build succeeds.
TEST(RecoveryTest, SidxScanReadErrorLeavesIndexAbsent) {
  auto build_tag_index = [](client::Client* db) -> sim::Task<Status> {
    auto handle = co_await db->OpenKeyspace("wide");
    if (!handle.ok()) co_return handle.status();
    co_return co_await handle->CreateSecondaryIndex(TagIndex());
  };
  PowerCycleFixture f(WideDevice());
  testutil::RunSim(f.sim, LoadWide(f.db.get(), "wide"));
  testutil::RunSim(f.sim, CompactAndWait(f.db.get(), "wide"));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("wide").value();
  const std::size_t free_before = dev->zones().free_zones();
  // The values take dozens of 16 KiB scan batches; the fifth read of the
  // first value zone falls a few batches into the scan.
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kRead;
  rule.zone = dev->zones().cluster_zones(ks->sorted_value_clusters.front())
                  .front();
  rule.skip = 4;
  f.faults.AddErrorRule(rule);

  const Status built = testutil::RunSim(f.sim, build_tag_index(f.db.get()));
  EXPECT_EQ(built.code(), StatusCode::kIoError) << built.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_TRUE(ks->secondary_indexes.empty());
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);

  ASSERT_TRUE(testutil::RunSim(f.sim, build_tag_index(f.db.get())).ok());
  EXPECT_EQ(ks->secondary_indexes.at("tag").entries, kWideKeys);
  ExpectClustersOwnedOnce(dev);
}

// An extraction failing while the next batch's gather is in flight fails
// the build only after that gather is joined (ASan would catch a gather
// writing into a returned frame), and leaves nothing behind.
TEST(RecoveryTest, SidxScanExtractErrorJoinsTheGatherInFlight) {
  PowerCycleFixture f(WideDevice());
  testutil::RunSim(f.sim, LoadWide(f.db.get(), "wide"));
  testutil::RunSim(f.sim, CompactAndWait(f.db.get(), "wide"));
  Device* dev = f.dev();
  Keyspace* ks = dev->keyspaces().Find("wide").value();
  const std::size_t free_before = dev->zones().free_zones();

  // Every value is 100 bytes, so a key at offset 98 runs past its end:
  // the first batch's extraction fails while the second is gathered.
  const Status built = testutil::RunSim(
      f.sim, [](client::Client* db) -> sim::Task<Status> {
        auto handle = co_await db->OpenKeyspace("wide");
        if (!handle.ok()) co_return handle.status();
        nvme::SecondaryIndexSpec spec = TagIndex();
        spec.value_offset = 98;
        spec.value_length = 4;
        co_return co_await handle->CreateSecondaryIndex(std::move(spec));
      }(f.db.get()));
  EXPECT_EQ(built.code(), StatusCode::kInvalidArgument) << built.ToString();
  EXPECT_TRUE(ks->secondary_indexes.empty());
  EXPECT_EQ(dev->zones().free_zones(), free_before);
  ExpectClustersOwnedOnce(dev);
}

// Write-buffer gauge of keyspace `name` (0 when the keyspace is gone).
std::uint64_t BufferBytes(const Device& dev, const std::string& name) {
  const std::string gauge = "device.ks." + name + ".buffer_bytes";
  for (const auto& [key, value] : dev.BuildHealthPage().gauges) {
    if (key == gauge) return value;
  }
  return 0;
}

// A flush failure belongs to the keyspace whose flush failed: another
// keyspace's Sync and compaction never see it, the owner's Sync surfaces
// it exactly once, and dropping the owner takes its buffer and latched
// error with it, so a keyspace recreated under the same name starts clean.
TEST(RecoveryTest, FlushFailureStaysWithItsKeyspace) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults,
         Device* dev) -> sim::Task<void> {
        auto a = co_await db->CreateKeyspace("a");
        KVCSD_CO_ASSERT_OK(a);
        auto b = co_await db->CreateKeyspace("b");
        KVCSD_CO_ASSERT_OK(b);
        for (std::uint64_t i = 0; i < 10; ++i) {
          KVCSD_CO_ASSERT_OK(co_await b->Put(MakeFixedKey(i), DetValue(i)));
        }
        // The next append fails: it is the VLOG append of the flush that
        // A's puts start once its 2 KiB buffer fills.
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        for (std::uint64_t i = 0; i < 100; ++i) {
          KVCSD_CO_ASSERT_OK(co_await a->Put(MakeFixedKey(i), DetValue(i)));
        }

        // B never sees A's latched error.
        KVCSD_CO_ASSERT_OK(co_await b->Sync());
        KVCSD_CO_ASSERT(faults->errors_injected() == 1);
        KVCSD_CO_ASSERT_OK(co_await b->Compact());
        KVCSD_CO_ASSERT_OK(co_await b->WaitCompaction());
        auto b_stat = co_await b->GetStat();
        KVCSD_CO_ASSERT_OK(b_stat);
        KVCSD_CO_ASSERT(b_stat->state == "COMPACTED");
        KVCSD_CO_ASSERT(b_stat->num_kvs == 10);

        // A surfaces it once; the retry re-flushes the re-queued batch.
        Status first = co_await a->Sync();
        KVCSD_CO_ASSERT(!first.ok());
        KVCSD_CO_ASSERT(first.IsRetryable());
        KVCSD_CO_ASSERT_OK(co_await a->Sync());
        KVCSD_CO_ASSERT(BufferBytes(*dev, "a") == 0);

        // Fail A's next flush too, then drop A with the error latched and
        // the failed batch back in its buffer.
        faults->AddErrorRule(rule);
        for (std::uint64_t i = 100; i < 200; ++i) {
          KVCSD_CO_ASSERT_OK(co_await a->Put(MakeFixedKey(i), DetValue(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await b->Sync());
        KVCSD_CO_ASSERT(faults->errors_injected() == 2);
        KVCSD_CO_ASSERT(BufferBytes(*dev, "a") > 0);
        KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("a"));

        auto again = co_await db->CreateKeyspace("a");
        KVCSD_CO_ASSERT_OK(again);
        KVCSD_CO_ASSERT(BufferBytes(*dev, "a") == 0);
        auto stat = co_await again->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        KVCSD_CO_ASSERT(stat->state == "EMPTY");
        KVCSD_CO_ASSERT(stat->num_kvs == 0);
        KVCSD_CO_ASSERT_OK(co_await again->Sync());
        KVCSD_CO_ASSERT_OK(co_await again->Put(MakeFixedKey(7), "fresh"));
        KVCSD_CO_ASSERT_OK(co_await again->Sync());
        KVCSD_CO_ASSERT_OK(co_await again->Compact());
        KVCSD_CO_ASSERT_OK(co_await again->WaitCompaction());
        auto got = co_await again->Get(MakeFixedKey(7));
        KVCSD_CO_ASSERT_OK(got);
        KVCSD_CO_ASSERT(*got == "fresh");
        auto stale = co_await again->Get(MakeFixedKey(150));
        KVCSD_CO_ASSERT(stale.status().code() == StatusCode::kNotFound);
      }(f.db.get(), &f.faults, f.dev()));
}

// A drop acknowledged while the keyspace was compacting (deferred
// deletion) must stay dropped across a crash that kills the compaction
// before the deferred FinishDrop ever runs — the tombstone persisted
// before the ack is what recovery completes the drop from.
TEST(RecoveryTest, AckedDeferredDropStaysDroppedAcrossCrash) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "dropped", kKeys));

  f.faults.ArmCrashAtPoint("compact.after_phase1", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("dropped");
        KVCSD_CO_ASSERT_OK(ks);
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        // COMPACTING, so the drop defers — but it is acknowledged, and
        // the ack lands before the armed crash kills the compaction.
        Status dropped = co_await db->DropKeyspace("dropped");
        KVCSD_CO_ASSERT_OK(dropped);
        KVCSD_CO_ASSERT(!faults->crashed());
        (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), "compact.after_phase1");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        // The acknowledged drop must not resurface.
        auto gone = co_await db->OpenKeyspace("dropped");
        KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);
        // And the device is fully usable: the dropped keyspace's zones
        // were reclaimed, so a fresh keyspace can take their place.
        auto ks = co_await db->CreateKeyspace("fresh");
        KVCSD_CO_ASSERT_OK(ks);
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1), "v"));
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.dev(), f.db.get()));
}

// Dropping a keyspace while its flushes and compaction are still in
// flight must defer, not free the Keyspace under a running coroutine
// (ASan in CI turns a regression here into a hard failure).
TEST(RecoveryTest, DropDuringInflightTrafficDefers) {
  PowerCycleFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("dropme");
    KVCSD_CO_ASSERT_OK(ks);
    // Enough data that detached FlushIo batches are still in flight
    // when the drop lands.
    for (std::uint64_t i = 0; i < 200; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropme"));
    auto gone = co_await db->OpenKeyspace("dropme");
    KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);

    // And through the COMPACTING window: the drop defers to the end of
    // the compaction, then completes.
    auto ks2 = co_await db->CreateKeyspace("dropme2");
    KVCSD_CO_ASSERT_OK(ks2);
    for (std::uint64_t i = 0; i < 200; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks2->Put(MakeFixedKey(i), DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks2->Compact());
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropme2"));
    KVCSD_CO_ASSERT_OK(co_await ks2->WaitCompaction());
    auto gone2 = co_await db->OpenKeyspace("dropme2");
    KVCSD_CO_ASSERT(gone2.status().code() == StatusCode::kNotFound);

    // And through the commit: the keyspace reads COMPACTED as soon as the
    // commit snapshot is being written, while the compaction still has
    // its persist, cache drop and release ahead of it.
    auto ks3 = co_await db->CreateKeyspace("dropme3");
    KVCSD_CO_ASSERT_OK(ks3);
    for (std::uint64_t i = 0; i < 600; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks3->Put(MakeFixedKey(i), DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks3->Compact());
    for (;;) {
      auto stat = co_await ks3->GetStat();
      KVCSD_CO_ASSERT_OK(stat);
      if (stat->state == "COMPACTED") break;
    }
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropme3"));
  }(f.db.get()));
  // The deferred drop ran once the compaction let go of the keyspace.
  EXPECT_EQ(f.dev()->keyspaces().Find("dropme3").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(f.dev()->zones().LiveClusters().empty());
}

// Unknown opcodes complete with Unimplemented, never silent OK — even
// when they carry an invalid keyspace id (Unimplemented wins over
// NotFound). A KNOWN keyspace-scoped opcode with a bad id is NotFound.
TEST(RecoveryTest, UnknownOpcodeRejected) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, nvme::QueueSet* qp) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("ops");
        KVCSD_CO_ASSERT_OK(ks);

        nvme::Command unknown;
        unknown.opcode = static_cast<nvme::Opcode>(0xee);
        unknown.keyspace_id = ks->id();
        auto c1 = co_await testutil::RoundTrip(qp, std::move(unknown));
        KVCSD_CO_ASSERT(c1.status.code() == StatusCode::kUnimplemented);

        // kKvDelete is a real opcode now: a blind tombstone write, Ok even
        // for a key that was never put.
        nvme::Command del;
        del.opcode = nvme::Opcode::kKvDelete;
        del.keyspace_id = ks->id();
        del.key = "never-written";
        auto c2 = co_await testutil::RoundTrip(qp, std::move(del));
        KVCSD_CO_ASSERT_OK(c2.status);

        nvme::Command bad_both;
        bad_both.opcode = static_cast<nvme::Opcode>(0xee);
        bad_both.keyspace_id = 424242;
        auto c3 = co_await testutil::RoundTrip(qp, std::move(bad_both));
        KVCSD_CO_ASSERT(c3.status.code() == StatusCode::kUnimplemented);

        nvme::Command bad_id;
        bad_id.opcode = nvme::Opcode::kSync;
        bad_id.keyspace_id = 424242;
        auto c4 = co_await testutil::RoundTrip(qp, std::move(bad_id));
        KVCSD_CO_ASSERT(c4.status.code() == StatusCode::kNotFound);
      }(f.db.get(), f.qps.back().get()));
}

// An undersized index block (corrupt on-flash metadata) surfaces as
// Corruption instead of an out-of-bounds read of the block header.
TEST(RecoveryTest, CorruptIndexBlockReturnsCorruption) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 200;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "corrupt", kKeys));
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("corrupt");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));

  auto corrupt = f.dev()->keyspaces().Find("corrupt");
  ASSERT_TRUE(corrupt.ok());
  ASSERT_FALSE((*corrupt)->pidx_sketch.empty());
  (*corrupt)->pidx_sketch[0].block_len = 1;  // undersized: header is 2 bytes

  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("corrupt");
    KVCSD_CO_ASSERT_OK(ks);
    auto got = co_await ks->Get(MakeFixedKey(0));
    KVCSD_CO_ASSERT(got.status().code() == StatusCode::kCorruption);
    std::vector<std::pair<std::string, std::string>> rows;
    Status scan = co_await ks->Scan("", "\x7f", 0, &rows);
    KVCSD_CO_ASSERT(scan.code() == StatusCode::kCorruption);
  }(f.db.get()));
}

// The bloom filter's durable copy is a CRC-framed blob outside the
// snapshot. A flipped bit in it must fail recovery loudly rather than load
// a filter that answers "absent" for keys that exist.
TEST(RecoveryTest, CorruptBloomBlobFailsRecovery) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 200;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "bloomy", kKeys));
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("bloomy");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));

  Keyspace* ks = f.dev()->keyspaces().Find("bloomy").value();
  ASSERT_FALSE(ks->pidx_bloom.empty());
  const BlobRef blob = ks->pidx_blob;
  ASSERT_NE(blob.cluster, 0u);
  storage::ZnsSsd& ssd = f.dev()->ssd();
  const auto zone = static_cast<std::uint32_t>(blob.addr / ssd.zone_size());
  ASSERT_EQ(blob.addr % ssd.zone_size(), 0u);  // alone in its zone
  ASSERT_EQ(ssd.write_pointer(zone), blob.len);

  // Rewrite the zone with one bit of the bloom filter (the blob's tail)
  // flipped: same address, same length, wrong bytes.
  std::string bytes(blob.len, '\0');
  auto as_span = [&bytes] {
    return std::span<std::byte>(reinterpret_cast<std::byte*>(bytes.data()),
                                bytes.size());
  };
  ASSERT_TRUE(testutil::RunSim(f.sim, ssd.Read(blob.addr, as_span())).ok());
  bytes[bytes.size() - 2] ^= 0x10;
  ASSERT_TRUE(testutil::RunSim(f.sim, ssd.Reset(zone)).ok());
  auto rewritten = testutil::RunSim(f.sim, ssd.Append(zone, as_span()));
  ASSERT_TRUE(rewritten.ok());
  ASSERT_EQ(*rewritten, blob.addr);
  ssd.CommitTail();  // the bad bytes are settled, not a torn tail

  f.faults.Crash();
  f.Restart();
  const Status recovered = testutil::RunSim(f.sim, f.dev()->Recover());
  EXPECT_EQ(recovered.code(), StatusCode::kCorruption) << recovered.ToString();
}

// What a compaction leaves behind when its zone releases meet a reset
// error: the compaction's status, the device's count of failed releases,
// and the free-zone count after a restart and recovery.
struct ReleaseOutcome {
  Status compaction;
  std::uint64_t release_failed = 0;
  bool counter_registered = false;
  bool breadcrumb = false;
  std::size_t free_zones_before_restart = 0;
  std::size_t free_zones_after_recover = 0;
};

ReleaseOutcome CompactWithResetErrors(std::uint64_t reset_errors) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 400;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "rel", kKeys));
  if (reset_errors > 0) {
    // Power stays on: the next reset fails once, whichever zone it hits.
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kReset;
    rule.times = reset_errors;
    f.faults.AddErrorRule(rule);
  }
  ReleaseOutcome out;
  testutil::RunSim(f.sim,
                   [](client::Client* db, Status* status) -> sim::Task<void> {
                     auto ks = co_await db->OpenKeyspace("rel");
                     KVCSD_CO_ASSERT_OK(ks);
                     KVCSD_CO_ASSERT_OK(co_await ks->Compact());
                     *status = co_await ks->WaitCompaction();
                   }(f.db.get(), &out.compaction));
  EXPECT_EQ(f.faults.errors_injected(), reset_errors);
  out.counter_registered = f.sim.stats().has_counter(
      "device.zones.release_failed");
  out.release_failed =
      f.sim.stats().counter_value("device.zones.release_failed");
  out.breadcrumb = f.sim.log().ToString().find("release failed") !=
                   std::string::npos;
  out.free_zones_before_restart = f.dev()->zones().free_zones();

  f.Restart();
  testutil::RunSim(f.sim, RecoverAndVerify(f.dev(), f.db.get(), "rel", kKeys));
  out.free_zones_after_recover = f.dev()->zones().free_zones();
  return out;
}

// A zone reset that fails while power is on does not fail the compaction
// that released the zones: the failure is counted and logged, the cluster
// stays owned, and the next recovery reclaims it, so the free-zone count
// after a restart equals that of a fault-free twin.
TEST(RecoveryTest, FailedZoneReleaseIsCountedAndReclaimedByRecovery) {
  const ReleaseOutcome clean = CompactWithResetErrors(0);
  ASSERT_TRUE(clean.compaction.ok()) << clean.compaction.ToString();
  // No failure, no series: reports of fault-free runs are unchanged.
  EXPECT_FALSE(clean.counter_registered);
  EXPECT_FALSE(clean.breadcrumb);

  const ReleaseOutcome failed = CompactWithResetErrors(1);
  ASSERT_TRUE(failed.compaction.ok()) << failed.compaction.ToString();
  EXPECT_EQ(failed.release_failed, 1u);
  EXPECT_TRUE(failed.breadcrumb);
  // The cluster whose reset failed is still owned until recovery.
  EXPECT_LT(failed.free_zones_before_restart, clean.free_zones_before_restart);
  EXPECT_EQ(failed.free_zones_after_recover, clean.free_zones_after_recover);
}

// After a power cut every reset fails by construction; the failed
// compaction's scratch release is then not a release failure.
TEST(RecoveryTest, ReleaseAfterPowerCutIsNotCounted) {
  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "cut", 400));
  f.faults.ArmCrashAtPoint("compact.before_commit");
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("cut");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    (void)co_await ks->WaitCompaction();
  }(f.db.get()));
  ASSERT_TRUE(f.faults.crashed());
  EXPECT_FALSE(f.sim.stats().has_counter("device.zones.release_failed"));
}

}  // namespace
}  // namespace kvcsd::device
