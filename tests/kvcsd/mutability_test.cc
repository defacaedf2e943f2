// Mutable-keyspace semantics (DESIGN.md §12): last-writer-wins overwrites
// within the WRITABLE phase, point deletes, delta-log mutations after
// compaction, merged reads across the sorted run and the live delta, and
// the incremental re-compaction that folds the delta back into the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "device_test_peer.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);  // tiny: overwrites span many flushes
  return c;
}

// value = 28 pad bytes + f32 energy (little-endian).
std::string EnergyValue(float energy) {
  std::string v(28, 'p');
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
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

// --------------------------------------------------------------------------
// Satellite 1: LWW for duplicate PUTs within the WRITABLE phase. The same
// key is overwritten many times with filler traffic in between, so the
// versions land in different flush batches (and, with a tiny write buffer,
// different KLOG zones). Compaction must keep only the newest by KLOG seq.
// --------------------------------------------------------------------------
TEST(MutabilityTest, LwwOverwriteAcrossZoneBoundaries) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr std::uint64_t kFiller = 3000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("lww")).value();
    // Interleave: overwrite key 7 every 500 filler puts; the filler pushes
    // each version of key 7 into a different flush batch / zone region.
    std::uint32_t version = 0;
    for (std::uint64_t i = 0; i < kFiller; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await ks.Put(MakeFixedKey(i), "filler-" + std::to_string(i)));
      if (i % 500 == 0) {
        ++version;
        KVCSD_CO_ASSERT_OK(co_await ks.Put(
            MakeFixedKey(7), "version-" + std::to_string(version)));
      }
    }
    // Final overwrite, then compact.
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(7), "version-final"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    auto got = co_await ks.Get(MakeFixedKey(7));
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == "version-final");

    // Duplicates collapse: num_kvs counts unique keys.
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kFiller);

    // Fingerprint the full scan and compare against a model built from the
    // newest versions only — a stale version of key 7 anywhere in the run
    // changes the crc.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kFiller);
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kFiller; ++i) {
      model.emplace_back(MakeFixedKey(i), i == 7 ? "version-final"
                                                 : "filler-" + std::to_string(i));
    }
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&f.client()));
}

// --------------------------------------------------------------------------
// Satellite 2: point deletes carry correct statuses. A delete in the
// WRITABLE phase is a blind tombstone (Ok even for absent keys) that
// suppresses the key at compaction; the per-opcode counter ticks.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeleteBeforeCompactionSuppressesKey) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db,
                               sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("del")).value();
    for (std::uint64_t i = 0; i < 100; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), "v" + std::to_string(i)));
    }
    // Blind delete of an absent key is Ok (tombstone over nothing).
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(999999)));
    // Delete key 42, then put-after-delete on key 43 (newest wins).
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(42)));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(43)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(43), "resurrected"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    auto gone = co_await ks.Get(MakeFixedKey(42));
    KVCSD_CO_ASSERT(gone.status().IsNotFound());
    auto back = co_await ks.Get(MakeFixedKey(43));
    KVCSD_CO_ASSERT_OK(back);
    KVCSD_CO_ASSERT(*back == "resurrected");

    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == 99);  // 100 puts - deleted 42

    // Range scan agrees.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 99);

    // Per-opcode accounting: 3 deletes were dispatched.
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.cmd.kv_delete") == 3);
  }(&f.client(), &f.sim()));
}

// --------------------------------------------------------------------------
// Tentpole: after compaction the keyspace accepts PUT/DELETE into a delta
// log; point, primary-range, and secondary-range queries all merge the
// sorted run with the live delta under last-writer-wins.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaMutationsVisibleInAllQueryTypes) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr std::uint64_t kKeys = 2000;
  testutil::RunSim(f.sim(), [](client::Client* db,
                               sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("delta")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>(i))));
    }
    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Mutations into the delta: overwrite key 100 (energy 100 -> 5000.5),
    // delete key 200, insert brand-new key kKeys+1 (energy 6000.5).
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(100), EnergyValue(5000.5f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(200)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 1),
                                       EnergyValue(6000.5f)));

    // Point lookups: delta wins over the run.
    auto updated = co_await ks.Get(MakeFixedKey(100));
    KVCSD_CO_ASSERT_OK(updated);
    KVCSD_CO_ASSERT(*updated == EnergyValue(5000.5f));
    auto deleted = co_await ks.Get(MakeFixedKey(200));
    KVCSD_CO_ASSERT(deleted.status().IsNotFound());
    auto fresh = co_await ks.Get(MakeFixedKey(kKeys + 1));
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT(*fresh == EnergyValue(6000.5f));
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.query.delta_hits") >= 2);

    // num_kvs = run entries + live delta entries. Until the delta is
    // folded the device cannot tell an overwrite from an insert without
    // reading the run, so the overwrite of key 100 double-counts and the
    // tombstone over key 200 does not subtract: 2000 + 2.
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys + 2);

    // Primary range over [90, 210]: sees the overwrite, hides the delete.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(
        co_await ks.Scan(MakeFixedKey(90), MakeFixedKey(210), 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 120);  // 121 keys in range minus key 200
    bool saw_updated = false;
    for (const auto& [k, v] : rows) {
      KVCSD_CO_ASSERT(k != MakeFixedKey(200));
      if (k == MakeFixedKey(100)) {
        saw_updated = true;
        KVCSD_CO_ASSERT(v == EnergyValue(5000.5f));
      }
    }
    KVCSD_CO_ASSERT(saw_updated);

    // Limit cut still honours the client limit after tombstone suppression.
    rows.clear();
    KVCSD_CO_ASSERT_OK(
        co_await ks.Scan(MakeFixedKey(195), MakeFixedKey(300), 10, &rows));
    KVCSD_CO_ASSERT(rows.size() == 10);
    KVCSD_CO_ASSERT(rows[5].first == MakeFixedKey(201));  // 200 suppressed

    // Secondary range: the overwritten tuple moved from skey 100 to
    // 5000.5, the deleted tuple vanished from skey 200, the new tuple
    // appears at 6000.5.
    rows.clear();
    KVCSD_CO_ASSERT_OK(
        co_await ks.QuerySecondaryRangeF32("energy", 99.5f, 100.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());  // old tuple for key 100 is stale
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 199.5f,
                                                          200.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());  // deleted
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 4000.0f,
                                                          7000.0f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);
    KVCSD_CO_ASSERT(rows[0].first == MakeFixedKey(100));
    KVCSD_CO_ASSERT(rows[0].second == EnergyValue(5000.5f));
    KVCSD_CO_ASSERT(rows[1].first == MakeFixedKey(kKeys + 1));
  }(&f.client(), &f.sim()));
}

// --------------------------------------------------------------------------
// Tentpole: incremental re-compaction folds the delta into the existing
// run without a full re-sort — most PIDX blocks are retained by reference,
// the delta is reclaimed, and every query type stays correct afterwards.
// --------------------------------------------------------------------------
TEST(MutabilityTest, IncrementalRecompactionFoldsDelta) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr std::uint64_t kKeys = 4000;
  testutil::RunSim(f.sim(), [](client::Client* db,
                               sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("fold")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>(i))));
    }
    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // A clustered batch of delta mutations (keys 500..519 overwritten,
    // 600..604 deleted, 2 inserts beyond the old max key).
    for (std::uint64_t i = 500; i < 520; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>(i) + 0.25f)));
    }
    for (std::uint64_t i = 600; i < 605; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 10),
                                       EnergyValue(9000.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 11),
                                       EnergyValue(9001.0f)));

    // Fingerprint the merged view BEFORE the fold...
    std::vector<std::pair<std::string, std::string>> before;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &before));

    // ...fold the delta into the run...
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.done") == 1);
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.delta_keys") ==
                    27);
    // Incremental, not a re-sort: the untouched majority of PIDX blocks is
    // carried over by reference.
    const std::uint64_t retained =
        sim->stats().counter_value("device.recompact.pidx_blocks_retained");
    const std::uint64_t rebuilt =
        sim->stats().counter_value("device.recompact.pidx_blocks_rebuilt");
    KVCSD_CO_ASSERT(retained > 0);
    KVCSD_CO_ASSERT(rebuilt > 0);
    KVCSD_CO_ASSERT(retained > rebuilt);

    // ...and the folded run is byte-identical to the merged view.
    std::vector<std::pair<std::string, std::string>> after;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &after));
    KVCSD_CO_ASSERT(after.size() == before.size());
    KVCSD_CO_ASSERT(Fingerprint(after) == Fingerprint(before));

    // num_kvs is exact again (delta reclaimed into run_entries).
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys + 2 - 5);

    // Point reads: updated value from the run, deleted key truly gone
    // (tombstone reclaimed, not just masked), insert served from the run.
    auto updated = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT_OK(updated);
    KVCSD_CO_ASSERT(*updated == EnergyValue(500.25f));
    auto gone = co_await ks.Get(MakeFixedKey(600));
    KVCSD_CO_ASSERT(gone.status().IsNotFound());
    auto fresh = co_await ks.Get(MakeFixedKey(kKeys + 10));
    KVCSD_CO_ASSERT_OK(fresh);

    // Secondary index was folded too.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 500.1f,
                                                          519.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 20);  // the 20 re-tagged tuples
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 599.5f,
                                                          604.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 8999.0f,
                                                          9002.0f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);

    // The keyspace is mutable again after the fold: a second round of
    // delta traffic and a second fold both work.
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(500)));
    auto regone = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT(regone.status().IsNotFound());
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.done") == 2);
    regone = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT(regone.status().IsNotFound());
  }(&f.client(), &f.sim()));
}

// --------------------------------------------------------------------------
// Satellite 3: a drop acknowledged while the keyspace is RECOMPACTING must
// defer until the fold finishes, then complete — never freeing the
// Keyspace under the running fold, never resurrecting the keyspace.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DropDuringRecompactionDefers) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("dropfold")).value();
    for (std::uint64_t i = 0; i < 2000; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), "v" + std::to_string(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(1), "delta"));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(2)));
    // Kick off the fold; the command acks immediately, the fold runs on.
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    // Drop while RECOMPACTING: acknowledged, deferred.
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropfold"));
    // New mutations race the deferred drop; whatever their status, the
    // device must not crash and the drop must win.
    (void)co_await ks.Put(MakeFixedKey(3), "race");
    (void)co_await ks.WaitCompaction();
    auto gone = co_await db->OpenKeyspace("dropfold");
    KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);
    // Zones were reclaimed: a fresh keyspace takes their place.
    auto fresh = co_await db->CreateKeyspace("fresh");
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT_OK(co_await fresh->Put(MakeFixedKey(1), "v"));
    KVCSD_CO_ASSERT_OK(co_await fresh->Sync());
  }(&f.client()));
}

// --------------------------------------------------------------------------
// Satellite 4: mutability across power cycles. Delta mutations synced
// before a power cut must replay from the delta log on recovery, with
// merged query results identical to the pre-crash view; a crash at every
// named point in the re-compaction path must recover to the same bytes.
// --------------------------------------------------------------------------

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

// Wires the test's injector into the device; half of an in-flight append
// survives a power cut.
harness::TestbedConfig PowerCycleBed(sim::FaultInjector* faults) {
  faults->set_torn_tail_keep(0.5);
  return testutil::Bed(SmallFaultyDevice(), faults);
}

constexpr std::uint64_t kPcKeys = 600;

// Load + compact + mutate (overwrite / delete / insert) + sync.
sim::Task<void> LoadCompactMutate(client::Client* db, const std::string& name) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < kPcKeys; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "value-" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(10), "overwritten"));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(20)));
  KVCSD_CO_ASSERT_OK(
      co_await ks->Put(MakeFixedKey(kPcKeys + 5), "inserted"));
  // Overwrite-then-delete and delete-then-overwrite chains: replay must
  // respect per-key seq order, not log-append order.
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(30), "doomed"));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(30)));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(40)));
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(40), "reborn"));
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// The merged view every recovery (and the no-crash run) must agree on.
sim::Task<void> VerifyMutatedView(client::Client* db, const std::string& name,
                                  std::uint32_t* fingerprint) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto updated = co_await ks->Get(MakeFixedKey(10));
  KVCSD_CO_ASSERT_OK(updated);
  KVCSD_CO_ASSERT(*updated == "overwritten");
  auto deleted = co_await ks->Get(MakeFixedKey(20));
  KVCSD_CO_ASSERT(deleted.status().IsNotFound());
  auto doomed = co_await ks->Get(MakeFixedKey(30));
  KVCSD_CO_ASSERT(doomed.status().IsNotFound());
  auto reborn = co_await ks->Get(MakeFixedKey(40));
  KVCSD_CO_ASSERT_OK(reborn);
  KVCSD_CO_ASSERT(*reborn == "reborn");
  auto inserted = co_await ks->Get(MakeFixedKey(kPcKeys + 5));
  KVCSD_CO_ASSERT_OK(inserted);
  KVCSD_CO_ASSERT(*inserted == "inserted");
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  KVCSD_CO_ASSERT(rows.size() == kPcKeys - 1);  // -20, -30, +505, +40 net -1
  *fingerprint = Fingerprint(rows);
}

TEST(MutabilityTest, DeltaMutationsSurvivePowerCut) {
  // Reference fingerprint from a run that never crashes.
  std::uint32_t reference = 0;
  {
    sim::FaultInjector ref_faults(7);
    harness::CsdTestbed ref(PowerCycleBed(&ref_faults));
    testutil::RunSim(ref.sim(), LoadCompactMutate(&ref.client(), "pc"));
    testutil::RunSim(ref.sim(),
                     VerifyMutatedView(&ref.client(), "pc", &reference));
  }
  ASSERT_NE(reference, 0u);

  sim::FaultInjector injector(7);
  harness::CsdTestbed f(PowerCycleBed(&injector));
  testutil::RunSim(f.sim(), LoadCompactMutate(&f.client(), "pc"));
  injector.Crash();  // lights out after the sync: delta log is durable
  f.PowerCycle();
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim(), [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(&f.dev()));
  testutil::RunSim(f.sim(), VerifyMutatedView(&f.client(), "pc", &recovered));
  EXPECT_EQ(recovered, reference);

  // The replayed delta folds cleanly: re-compact and verify again.
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f.client()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim(), VerifyMutatedView(&f.client(), "pc", &folded));
  EXPECT_EQ(folded, reference);
}

// Crash at every named point in the re-compaction path; recovery must
// produce the same merged bytes regardless of where the fold died.
class RecompactCrashPointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RecompactCrashPointTest, RecoversToSameBytes) {
  const char* point = GetParam();

  std::uint32_t reference = 0;
  {
    sim::FaultInjector ref_faults(7);
    harness::CsdTestbed ref(PowerCycleBed(&ref_faults));
    testutil::RunSim(ref.sim(), LoadCompactMutate(&ref.client(), "rc"));
    testutil::RunSim(ref.sim(),
                     VerifyMutatedView(&ref.client(), "rc", &reference));
  }
  ASSERT_NE(reference, 0u);

  sim::FaultInjector injector(7);
  harness::CsdTestbed f(PowerCycleBed(&injector));
  testutil::RunSim(f.sim(), LoadCompactMutate(&f.client(), "rc"));
  injector.ArmCrashAtPoint(point, 1);
  testutil::RunSim(
      f.sim(),
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("rc");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(&f.client(), &injector));
  ASSERT_EQ(injector.crash_point(), point);

  f.PowerCycle();
  testutil::RunSim(f.sim(), [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(&f.dev()));
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim(), VerifyMutatedView(&f.client(), "rc", &recovered));
  EXPECT_EQ(recovered, reference) << point;

  // And the fold completes cleanly on the recovered state.
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("rc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f.client()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim(), VerifyMutatedView(&f.client(), "rc", &folded));
  EXPECT_EQ(folded, reference) << point;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecompactCrashPointTest,
                         ::testing::Values("recompact.before_fold",
                                           "recompact.mid_pidx",
                                           "recompact.before_commit",
                                           "recompact.after_commit"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           std::string name = p.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// --------------------------------------------------------------------------
// Pipelined fold (recompact.cc): dirty index blocks are read in batch
// gathers, two in flight (one at gather_fanout 1), and the rebuilt blocks
// share appends issued in sketch order without waiting for each program.
// The window changes the fold's time, never its output, and a fault in
// the middle of the stream rolls the fold back as cleanly as a serial one.
// --------------------------------------------------------------------------

constexpr std::uint64_t kFoldKeys = 4000;

// Every fold read goes to flash; the test's injector is wired.
harness::TestbedConfig FoldBed(
    sim::FaultInjector* faults,
    std::uint32_t fanout = DeviceConfig{}.gather_fanout) {
  DeviceConfig cfg = SmallDevice();
  cfg.gather_fanout = fanout;
  cfg.index_cache_enabled = false;
  return testutil::Bed(cfg, faults);
}

Keyspace* FoldKeyspace(harness::CsdTestbed* f) {
  return f->dev().keyspaces().Find("fold").value();
}
std::uint64_t Counter(harness::CsdTestbed& f, const std::string& name) {
  return f.sim().stats().counter_value(name);
}
std::uint64_t fold_ns(harness::CsdTestbed& f) {
  return f.sim().stats().histogram("device.recompact.fold_ns").sum();
}

// Folds the delta through the client API.
void Fold(harness::CsdTestbed* f) {
  testutil::RunSim(f->sim(), [](client::Client* c) -> sim::Task<void> {
    auto ks = co_await c->OpenKeyspace("fold");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f->client()));
}

// Loads kFoldKeys energy-tagged keys, compacts them with an "energy"
// secondary index (unless !indexed), then spreads a synced delta over
// every PIDX block: every 23rd key re-tagged, every 41st deleted, five
// inserts past the old maximum.
sim::Task<void> LoadCompactSpreadDelta(client::Client* db,
                                       bool indexed = true) {
  auto ks = co_await db->CreateKeyspace("fold");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < kFoldKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i), EnergyValue(static_cast<float>(i))));
  }
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  if (indexed) specs.push_back(energy);
  KVCSD_CO_ASSERT_OK(co_await ks->CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  for (std::uint64_t i = 0; i < kFoldKeys; i += 23) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i),
        EnergyValue(static_cast<float>(i) + 0.5f)));
  }
  for (std::uint64_t i = 7; i < kFoldKeys; i += 41) {
    KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(i)));
  }
  for (std::uint64_t i = kFoldKeys; i < kFoldKeys + 5; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i), EnergyValue(static_cast<float>(i))));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// Fingerprints of a full primary scan and a full secondary scan.
sim::Task<void> FingerprintFold(client::Client* db, std::uint32_t* primary,
                                std::uint32_t* secondary) {
  auto ks = co_await db->OpenKeyspace("fold");
  KVCSD_CO_ASSERT_OK(ks);
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  *primary = Fingerprint(rows);
  rows.clear();
  KVCSD_CO_ASSERT_OK(
      co_await ks->QuerySecondaryRangeF32("energy", -1e9f, 1e9f, 0, &rows));
  *secondary = Fingerprint(rows);
}

bool SameSketch(const std::vector<SketchEntry>& a,
                const std::vector<SketchEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pivot != b[i].pivot || a[i].block_addr != b[i].block_addr ||
        a[i].block_len != b[i].block_len) {
      return false;
    }
  }
  return true;
}

// Both fixtures must hold the same layout: PIDX and SIDX sketches (pivots
// and block addresses) and the bytes every scan returns.
void ExpectSameFoldLayout(harness::CsdTestbed* a, harness::CsdTestbed* b) {
  Keyspace* ks_a = FoldKeyspace(a);
  Keyspace* ks_b = FoldKeyspace(b);
  EXPECT_TRUE(SameSketch(ks_a->pidx_sketch, ks_b->pidx_sketch));
  EXPECT_TRUE(SameSketch(ks_a->secondary_indexes.at("energy").sketch,
                         ks_b->secondary_indexes.at("energy").sketch));
  std::uint32_t primary_a = 0, secondary_a = 0;
  std::uint32_t primary_b = 0, secondary_b = 0;
  testutil::RunSim(a->sim(),
                   FingerprintFold(&a->client(), &primary_a, &secondary_a));
  testutil::RunSim(b->sim(),
                   FingerprintFold(&b->client(), &primary_b, &secondary_b));
  EXPECT_EQ(primary_a, primary_b);
  EXPECT_EQ(secondary_a, secondary_b);
}

TEST(MutabilityTest, FoldWindowKeepsLayoutAndCutsFoldTime) {
  sim::FaultInjector serial_faults(7);
  sim::FaultInjector windowed_faults(7);
  harness::CsdTestbed serial(FoldBed(&serial_faults, 1));
  harness::CsdTestbed windowed(FoldBed(&windowed_faults));
  ASSERT_GT(windowed.dev().config().gather_fanout, 1u);
  for (harness::CsdTestbed* f : {&serial, &windowed}) {
    testutil::RunSim(f->sim(), LoadCompactSpreadDelta(&f->client()));
  }
  ExpectSameFoldLayout(&serial, &windowed);  // same starting point

  // Round 1: the delta dirties every PIDX block.
  Fold(&serial);
  Fold(&windowed);
  EXPECT_EQ(Counter(windowed, "device.recompact.done"), 1u);
  EXPECT_GT(Counter(windowed, "device.recompact.pidx_blocks_rebuilt"), 20u);
  EXPECT_EQ(Counter(windowed, "zns.pidx.appends"),
            Counter(serial, "zns.pidx.appends"));
  ExpectSameFoldLayout(&serial, &windowed);
  const std::uint64_t serial_round1 = fold_ns(serial);
  const std::uint64_t windowed_round1 = fold_ns(windowed);
  EXPECT_LT(windowed_round1, serial_round1);

  // Round 2: one overwrite. A single PIDX block is rebuilt either way, so
  // the time the window saves is the SIDX fold streaming every block.
  for (harness::CsdTestbed* f : {&serial, &windowed}) {
    testutil::RunSim(f->sim(), [](client::Client* c) -> sim::Task<void> {
      auto ks = co_await c->OpenKeyspace("fold");
      KVCSD_CO_ASSERT_OK(ks);
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1234),
                                          EnergyValue(-3.0f)));
      KVCSD_CO_ASSERT_OK(co_await ks->Sync());
    }(&f->client()));
    Fold(f);
  }
  EXPECT_EQ(Counter(windowed, "device.recompact.done"), 2u);
  EXPECT_GT(Counter(windowed, "device.recompact.sidx_blocks_retained"), 20u);
  ExpectSameFoldLayout(&serial, &windowed);
  EXPECT_LT(fold_ns(windowed) - windowed_round1,
            fold_ns(serial) - serial_round1);
}

// Arms one I/O error rule for the fold (on the metadata zone only when
// `metadata_zone`) and checks the rollback contract: the fold returns the
// injected error, the keyspace is COMPACTED again with its delta intact,
// every scratch cluster went back to the free pool, each live cluster has
// one owner, and a retried fold succeeds with the same merged bytes.
// `pidx_appends` is how many PIDX appends the fold got to issue first.
void ExpectFoldFaultRollsBack(sim::FaultOp op, std::uint64_t skip,
                              std::uint64_t pidx_appends,
                              bool metadata_zone = false) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(FoldBed(&injector));
  testutil::RunSim(f.sim(), LoadCompactSpreadDelta(&f.client()));
  std::uint32_t primary = 0, secondary = 0;
  testutil::RunSim(f.sim(), FingerprintFold(&f.client(), &primary, &secondary));
  Keyspace* ks = FoldKeyspace(&f);
  const std::size_t delta_keys = ks->delta_index.size();
  const std::size_t free_before = f.dev().zones().free_zones();
  const std::uint64_t pidx_appends_before = Counter(f, "zns.pidx.appends");

  sim::ErrorRule rule;
  rule.op = op;
  rule.skip = skip;
  if (metadata_zone) rule.zone = f.dev().keyspaces().current_meta_zone();
  injector.AddErrorRule(rule);
  Status folded =
      testutil::RunSim(f.sim(), DeviceTestPeer::Compact(&f.dev(), ks));
  EXPECT_EQ(folded.code(), StatusCode::kIoError) << folded.ToString();
  EXPECT_EQ(injector.errors_injected(), 1u);
  EXPECT_EQ(Counter(f, "zns.pidx.appends") - pidx_appends_before,
            pidx_appends);
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->delta_index.size(), delta_keys);
  EXPECT_EQ(f.dev().zones().free_zones(), free_before);
  EXPECT_EQ(Counter(f, "device.recompact.done"), 0u);
  ExpectClustersOwnedOnce(&f.dev());
  std::uint32_t primary_after = 0, secondary_after = 0;
  testutil::RunSim(f.sim(), FingerprintFold(&f.client(), &primary_after,
                                            &secondary_after));
  EXPECT_EQ(primary_after, primary);
  EXPECT_EQ(secondary_after, secondary);

  Fold(&f);  // the rule fired once; the retry runs clean
  EXPECT_EQ(Counter(f, "device.recompact.done"), 1u);
  EXPECT_TRUE(ks->delta_index.empty());
  ExpectClustersOwnedOnce(&f.dev());
  testutil::RunSim(f.sim(), FingerprintFold(&f.client(), &primary_after,
                                            &secondary_after));
  EXPECT_EQ(primary_after, primary);
  EXPECT_EQ(secondary_after, secondary);
}

TEST(MutabilityTest, FoldReadErrorMidWindowRollsBack) {
  // With the cache off and every delta value inline, the fold's first
  // flash reads are the batch gathers of the dirty PIDX blocks, six
  // contiguous blocks (one read) each on this device, two in flight.
  // Read 3, batch 3's gather, fails; the fold meets the error after
  // merging and staging batches 1 and 2. Their rebuilt blocks wait for a
  // shared append, so no PIDX append has gone out.
  ExpectFoldFaultRollsBack(sim::FaultOp::kRead, 2, 0);
}

TEST(MutabilityTest, FoldAppendErrorMidWindowRollsBack) {
  // Before the SIDX fold's first append the fold appends the RECOMPACTING
  // snapshot, one batch of delta values and the rebuilt PIDX blocks,
  // which share one append; the SIDX append fails with that PIDX output
  // landed.
  ExpectFoldFaultRollsBack(sim::FaultOp::kAppend, 3, 1);
}

TEST(MutabilityTest, FoldCommitPersistErrorRollsBack) {
  // The fold appends two snapshots: RECOMPACTING, then the commit. The
  // commit fails after the whole fold was written: both PIDX appends a
  // clean fold of this delta issues, the rebuilt blocks' shared one and
  // its PIDX blob.
  ExpectFoldFaultRollsBack(sim::FaultOp::kAppend, 1, 2, true);
}

// Rebuilt blocks of consecutive regions share appends: a fold that
// dirties every PIDX block issues at most ceil(rebuilt bytes /
// output_batch_bytes) PIDX appends plus its blob, far fewer than its
// regions. The small batch makes several appends of it.
TEST(MutabilityTest, FoldRegionsShareAppends) {
  sim::FaultInjector faults(7);
  DeviceConfig cfg = SmallDevice();
  cfg.index_cache_enabled = false;
  cfg.output_batch_bytes = KiB(16);
  harness::CsdTestbed f(testutil::Bed(cfg, &faults));
  testutil::RunSim(f.sim(), LoadCompactSpreadDelta(&f.client()));
  const std::uint64_t appends_before = Counter(f, "zns.pidx.appends");
  Fold(&f);
  EXPECT_EQ(Counter(f, "device.recompact.pidx_blocks_retained"), 0u);
  const std::uint64_t regions =
      Counter(f, "device.recompact.pidx_blocks_rebuilt");
  EXPECT_GT(regions, 20u);
  const std::uint64_t rebuilt_bytes =
      FoldKeyspace(&f)->pidx_sketch.size() * kIndexBlockSize;
  const std::uint64_t appends = Counter(f, "zns.pidx.appends") - appends_before;
  EXPECT_LE(appends, (rebuilt_bytes + cfg.output_batch_bytes - 1) /
                             cfg.output_batch_bytes +
                         1);
  EXPECT_GT(appends, 2u);
  EXPECT_LT(appends, regions);
}

// A fold and a SIDX build walk whole runs in batch gathers, past the
// index cache: neither looks a block up in it.
TEST(MutabilityTest, FoldAndIndexBuildLookNothingUpInIndexCache) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  ASSERT_TRUE(f.dev().config().index_cache_enabled);
  testutil::RunSim(f.sim(), LoadCompactSpreadDelta(&f.client()));
  const std::uint64_t hits = Counter(f, "device.read_cache.hits");
  const std::uint64_t misses = Counter(f, "device.read_cache.misses");
  const std::uint64_t pidx_read = Counter(f, "zns.pidx.read_bytes");
  const std::uint64_t sidx_read = Counter(f, "zns.sidx.read_bytes");
  Fold(&f);
  EXPECT_EQ(Counter(f, "device.recompact.done"), 1u);
  EXPECT_GT(Counter(f, "zns.pidx.read_bytes"), pidx_read);
  EXPECT_GT(Counter(f, "zns.sidx.read_bytes"), sidx_read);
  EXPECT_EQ(Counter(f, "device.read_cache.hits"), hits);
  EXPECT_EQ(Counter(f, "device.read_cache.misses"), misses);

  const std::uint64_t pidx_read_folded = Counter(f, "zns.pidx.read_bytes");
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("fold");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy2", 28));
  }(&f.client()));
  EXPECT_GT(Counter(f, "zns.pidx.read_bytes"), pidx_read_folded);
  EXPECT_EQ(Counter(f, "device.read_cache.hits"), hits);
  EXPECT_EQ(Counter(f, "device.read_cache.misses"), misses);
}

// The fold's SIDX work costs SoC time: extracting the fresh tuples'
// secondary keys from the live delta values, packing each rebuilt region
// and searching each streamed block. This delta rebuilds every SIDX
// block, so every tuple of the folded index is packed once: an indexed
// fold's recompact busy time exceeds the same fold without the index by
// at least the three charges.
TEST(MutabilityTest, IndexedFoldChargesSidxWork) {
  sim::FaultInjector plain_faults(7);
  sim::FaultInjector indexed_faults(7);
  harness::CsdTestbed plain(FoldBed(&plain_faults));
  harness::CsdTestbed indexed(FoldBed(&indexed_faults));
  testutil::RunSim(plain.sim(), LoadCompactSpreadDelta(&plain.client(), false));
  testutil::RunSim(indexed.sim(), LoadCompactSpreadDelta(&indexed.client()));
  ASSERT_TRUE(FoldKeyspace(&plain)->secondary_indexes.empty());

  // Extraction: every live delta value. Every tuple has the same size.
  Keyspace* ks = FoldKeyspace(&indexed);
  const SecondaryIndex& sidx = ks->secondary_indexes.at("energy");
  const std::uint64_t sidx_blocks = sidx.sketch.size();
  std::uint64_t value_bytes = 0;
  std::uint64_t tuple_size = 0;
  for (const auto& [key, entry] : ks->delta_index) {
    if (entry.tombstone) continue;
    ASSERT_TRUE(entry.has_value);
    value_bytes += entry.vlen;
    auto skey = nvme::ExtractSecondaryKey(Slice(entry.value), sidx.spec);
    ASSERT_TRUE(skey.ok());
    tuple_size = skey->size() + key.size() + 12;
  }
  ASSERT_GT(value_bytes, 0u);

  auto recompact_busy = [](harness::CsdTestbed& f) {
    return f.dev().cpu().meter().TotalBusy()[static_cast<std::size_t>(
        sim::Activity::kRecompact)];
  };
  const Tick plain_before = recompact_busy(plain);
  const Tick indexed_before = recompact_busy(indexed);
  Fold(&plain);
  Fold(&indexed);
  const Tick plain_fold = recompact_busy(plain) - plain_before;
  const Tick indexed_fold = recompact_busy(indexed) - indexed_before;
  EXPECT_EQ(Counter(indexed, "device.recompact.sidx_blocks_retained"), 0u);
  const std::uint64_t tuples = ks->secondary_indexes.at("energy").entries;
  const hostenv::CostModel& costs = indexed.dev().config().costs;
  const Tick charges =
      TransferTicks(value_bytes, costs.extract_bytes_per_sec) +
      TransferTicks(tuples * tuple_size, costs.memcpy_bytes_per_sec) +
      static_cast<Tick>(sidx_blocks) * costs.block_search;
  EXPECT_GE(indexed_fold, plain_fold + charges);
}

// A failed fold rolls the keyspace back to COMPACTED, so its state alone
// hides the failure: the stat carries the fold's status until a clean
// fold resets it.
TEST(MutabilityTest, StatCarriesTheLastFoldStatus) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(FoldBed(&injector));
  testutil::RunSim(f.sim(), LoadCompactSpreadDelta(&f.client()));
  auto expect_stat = [&f](StatusCode code) {
    testutil::RunSim(f.sim(), [](client::Client* db,
                                 StatusCode want) -> sim::Task<void> {
      auto ks = co_await db->OpenKeyspace("fold");
      KVCSD_CO_ASSERT_OK(ks);
      auto stat = co_await ks->GetStat();
      KVCSD_CO_ASSERT_OK(stat);
      KVCSD_CO_ASSERT(stat->state == "COMPACTED");
      KVCSD_CO_ASSERT(stat->compaction_status.code() == want);
    }(&f.client(), code));
  };
  expect_stat(StatusCode::kOk);

  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.skip = 2;  // the RECOMPACTING snapshot and the delta values land
  injector.AddErrorRule(rule);
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("fold");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    Status waited = co_await ks->WaitCompaction();
    KVCSD_CO_ASSERT(waited.code() == StatusCode::kIoError);
  }(&f.client()));
  EXPECT_EQ(injector.errors_injected(), 1u);
  EXPECT_EQ(Counter(f, "device.recompact.done"), 0u);
  expect_stat(StatusCode::kIoError);

  Fold(&f);  // the rule fired once; the retry runs clean
  EXPECT_EQ(Counter(f, "device.recompact.done"), 1u);
  expect_stat(StatusCode::kOk);
}

// Overwrites every 7th key of [0, keys) and deletes every 11th, then folds
// the delta into the run of keyspace "life".
sim::Task<void> MutateAndFold(client::Client* db, std::uint64_t keys,
                              float shift) {
  auto ks = co_await db->OpenKeyspace("life");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < keys; i += 7) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i),
        EnergyValue(static_cast<float>(i) + shift)));
  }
  for (std::uint64_t i = 3; i < keys; i += 11) {
    KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

// Through a clean compact -> fold -> index build -> fold -> drop lifecycle
// every live cluster keeps exactly one owner: each commit releases what
// the superseded layout held and the new one does not, and the drop
// releases the rest.
TEST(MutabilityTest, FoldLifecycleKeepsOneOwnerPerCluster) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr std::uint64_t kKeys = 2000;
  const std::size_t free_at_start = f.dev().zones().free_zones();
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("life");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>(i))));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f.client()));
  ExpectClustersOwnedOnce(&f.dev());

  testutil::RunSim(f.sim(), MutateAndFold(&f.client(), kKeys, 0.25f));
  EXPECT_EQ(f.sim().stats().counter_value("device.recompact.done"), 1u);
  ExpectClustersOwnedOnce(&f.dev());

  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("life");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy", 28));
  }(&f.client()));
  ExpectClustersOwnedOnce(&f.dev());

  testutil::RunSim(f.sim(), MutateAndFold(&f.client(), kKeys, 0.5f));
  EXPECT_EQ(f.sim().stats().counter_value("device.recompact.done"), 2u);
  EXPECT_GT(
      f.sim().stats().counter_value("device.recompact.sidx_blocks_rebuilt"),
      0u);
  ExpectClustersOwnedOnce(&f.dev());

  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("life"));
  }(&f.client()));
  ExpectClustersOwnedOnce(&f.dev());
  EXPECT_TRUE(f.dev().zones().LiveClusters().empty());
  EXPECT_EQ(f.dev().zones().free_zones(), free_at_start);
}

// --------------------------------------------------------------------------
// Delta-index gauge: every delta overwrite adds kDeltaEntryOverhead + key +
// value bytes to "device.delta.index_bytes", and a host-issued fold drains
// it to zero while the merged view survives byte-identically.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaIndexGaugeTracksEntriesAndDrainsOnFold) {
  constexpr std::uint64_t kKeys = 200;
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* dbp,
                           Device* devp) -> sim::Task<void> {
    auto ks = (co_await dbp->CreateKeyspace("gauge")).value();
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
                    0);

    std::uint64_t expect_bytes = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      expect_bytes += kDeltaEntryOverhead + 16 + model[i].second.size();
      KVCSD_CO_ASSERT(
          devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
          expect_bytes);
    }

    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys);
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
                    0);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys);
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&f.client(), &f.dev()));
}

// --------------------------------------------------------------------------
// A fold into an empty run takes the fold's from-scratch path: the whole
// delta becomes the run. It goes through the same value writer and commit
// as a compaction, so it must write what a fresh compaction of the same
// final contents writes: the same SORTED_VALUES appends, carrying the same
// value bytes in key order, the same PIDX entries in as many blocks, and
// the same answers, and the same bloom filter: the fold builds its filter
// afresh rather than OR the keys into the empty compaction's minimum one.
// --------------------------------------------------------------------------

constexpr std::uint64_t kScratchKeys = 1500;

// PUTs every key with a value of varying size, overwrites every 7th,
// deletes every 11th, re-PUTs every 33rd and blind-deletes a key never
// written, then syncs.
sim::Task<void> MutateFold(client::Client* db) {
  auto ks = co_await db->OpenKeyspace("fold");
  KVCSD_CO_ASSERT_OK(ks);
  auto value = [](std::uint64_t i, char tag) {
    return std::string(40 + (i * 37) % 200, tag) + std::to_string(i);
  };
  for (std::uint64_t i = 0; i < kScratchKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), value(i, 'a')));
  }
  for (std::uint64_t i = 0; i < kScratchKeys; i += 7) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), value(i + 3, 'b')));
  }
  for (std::uint64_t i = 0; i < kScratchKeys; i += 11) {
    KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(i)));
  }
  for (std::uint64_t i = 0; i < kScratchKeys; i += 33) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), value(i + 5, 'c')));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(kScratchKeys + 3)));
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// The run as the PIDX describes it: (key, vlen) of every entry in sketch
// order, the value bytes those entries point at, and the block count.
struct RunContents {
  std::vector<std::pair<std::string, std::uint32_t>> entries;
  std::string values;
  std::size_t blocks = 0;
};

sim::Task<void> ReadRun(harness::CsdTestbed* f, RunContents* out) {
  Device* dev = &f->dev();
  Keyspace* ks = FoldKeyspace(f);
  out->blocks = ks->pidx_sketch.size();
  std::vector<DeviceTestPeer::ValueRef> refs;
  for (const SketchEntry& entry : ks->pidx_sketch) {
    auto block = co_await DeviceTestPeer::ReadIndexBlock(dev, ks->id, entry);
    KVCSD_CO_ASSERT_OK(block);
    KVCSD_CO_ASSERT_OK(wire::ForEachIndexEntry<wire::PidxEntry>(
        *block, [&](const wire::PidxEntry& e) {
          out->entries.emplace_back(e.key.ToString(), e.vlen);
          refs.push_back(DeviceTestPeer::ValueRef{e.vaddr, e.vlen});
          return true;
        }));
  }
  auto values = co_await DeviceTestPeer::Gather(dev, std::move(refs));
  KVCSD_CO_ASSERT_OK(values);
  for (const std::string& v : *values) out->values += v;
}

// Every GET (present, deleted, overwritten and never-written keys) and a
// full scan, as (status code, value) rows and one fingerprint.
sim::Task<void> Answers(client::Client* db,
                        std::vector<std::pair<int, std::string>>* gets,
                        std::uint32_t* scan) {
  auto ks = co_await db->OpenKeyspace("fold");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < kScratchKeys + 10; ++i) {
    auto got = co_await ks->Get(MakeFixedKey(i));
    gets->emplace_back(static_cast<int>(got.status().code()),
                       got.ok() ? *got : std::string());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  *scan = Fingerprint(rows);
}

TEST(MutabilityTest, FoldIntoEmptyRunMatchesCompaction) {
  DeviceConfig cfg = SmallDevice();
  cfg.output_batch_bytes = KiB(16);  // many appends and PIDX batches
  harness::CsdTestbed folded(testutil::Bed(cfg));
  harness::CsdTestbed compacted(testutil::Bed(cfg));
  auto create = [](client::Client* db, bool compact) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("fold");
    KVCSD_CO_ASSERT_OK(ks);
    if (!compact) co_return;
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  };
  // Compacted while EMPTY: the mutations land in the delta of an empty run.
  testutil::RunSim(folded.sim(), create(&folded.client(), true));
  ASSERT_TRUE(FoldKeyspace(&folded)->pidx_sketch.empty());
  testutil::RunSim(folded.sim(), MutateFold(&folded.client()));
  Fold(&folded);
  EXPECT_EQ(Counter(folded, "device.recompact.done"), 1u);
  EXPECT_EQ(Counter(folded, "device.recompact.pidx_blocks_retained"), 0u);
  EXPECT_EQ(Counter(folded, "device.recompact.pidx_blocks_rebuilt"), 1u);

  testutil::RunSim(compacted.sim(), create(&compacted.client(), false));
  testutil::RunSim(compacted.sim(), MutateFold(&compacted.client()));
  Fold(&compacted);  // a WRITABLE keyspace: a full compaction
  EXPECT_EQ(Counter(compacted, "device.compact.done"), 1u);
  EXPECT_EQ(Counter(compacted, "device.recompact.done"), 0u);

  EXPECT_GT(Counter(compacted, "zns.sorted_values.appends"), 4u);
  EXPECT_EQ(Counter(folded, "zns.sorted_values.appends"),
            Counter(compacted, "zns.sorted_values.appends"));
  EXPECT_EQ(Counter(folded, "zns.sorted_values.append_bytes"),
            Counter(compacted, "zns.sorted_values.append_bytes"));
  RunContents run_folded, run_compacted;
  testutil::RunSim(folded.sim(), ReadRun(&folded, &run_folded));
  testutil::RunSim(compacted.sim(), ReadRun(&compacted, &run_compacted));
  EXPECT_GT(run_compacted.blocks, 4u);
  EXPECT_EQ(run_folded.blocks, run_compacted.blocks);
  EXPECT_EQ(run_folded.entries, run_compacted.entries);
  EXPECT_EQ(run_folded.values, run_compacted.values);
  EXPECT_EQ(FoldKeyspace(&folded)->NumKvs(), run_compacted.entries.size());

  EXPECT_FALSE(FoldKeyspace(&folded)->pidx_bloom.empty());
  EXPECT_EQ(FoldKeyspace(&folded)->pidx_bloom,
            FoldKeyspace(&compacted)->pidx_bloom);

  std::vector<std::pair<int, std::string>> gets_folded, gets_compacted;
  std::uint32_t scan_folded = 0, scan_compacted = 0;
  const std::uint64_t negative = Counter(folded, "device.bloom.negative");
  const std::uint64_t false_positive =
      Counter(folded, "device.bloom.false_positive");
  testutil::RunSim(folded.sim(),
                   Answers(&folded.client(), &gets_folded, &scan_folded));
  // Deleted and never-written keys: the filter answers each from DRAM.
  EXPECT_EQ(Counter(folded, "device.bloom.negative") - negative, 101u);
  EXPECT_EQ(Counter(folded, "device.bloom.false_positive"), false_positive);
  testutil::RunSim(compacted.sim(), Answers(&compacted.client(),
                                            &gets_compacted, &scan_compacted));
  EXPECT_EQ(gets_folded, gets_compacted);
  EXPECT_EQ(scan_folded, scan_compacted);
}

}  // namespace
}  // namespace kvcsd::device
