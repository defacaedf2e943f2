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
  }(f.db.get()));
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

}  // namespace
}  // namespace kvcsd::device
