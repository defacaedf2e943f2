// Mutable-keyspace semantics (DESIGN.md §12): last-writer-wins overwrites
// within the WRITABLE phase, point deletes, delta-log mutations after
// compaction, merged reads across the sorted run and the live delta, and
// the incremental re-compaction that folds the delta back into the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "device_test_peer.h"
#include "kvcsd/device.h"
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

struct CsdFixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  Device dev{&sim, SmallDevice(), &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  CsdFixture() { dev.Start(); }

  // value = 28 pad bytes + f32 energy (little-endian).
  static std::string EnergyValue(float energy) {
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &energy, 4);
    v.append(buf, 4);
    return v;
  }
};

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
  CsdFixture f;
  constexpr std::uint64_t kFiller = 3000;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
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
  }(&f.db));
}

// --------------------------------------------------------------------------
// Satellite 2: point deletes carry correct statuses. A delete in the
// WRITABLE phase is a blind tombstone (Ok even for absent keys) that
// suppresses the key at compaction; the per-opcode counter ticks.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeleteBeforeCompactionSuppressesKey) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
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
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Tentpole: after compaction the keyspace accepts PUT/DELETE into a delta
// log; point, primary-range, and secondary-range queries all merge the
// sorted run with the live delta under last-writer-wins.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaMutationsVisibleInAllQueryTypes) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 2000;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("delta")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
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
        co_await ks.Put(MakeFixedKey(100), CsdFixture::EnergyValue(5000.5f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(200)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 1),
                                       CsdFixture::EnergyValue(6000.5f)));

    // Point lookups: delta wins over the run.
    auto updated = co_await ks.Get(MakeFixedKey(100));
    KVCSD_CO_ASSERT_OK(updated);
    KVCSD_CO_ASSERT(*updated == CsdFixture::EnergyValue(5000.5f));
    auto deleted = co_await ks.Get(MakeFixedKey(200));
    KVCSD_CO_ASSERT(deleted.status().IsNotFound());
    auto fresh = co_await ks.Get(MakeFixedKey(kKeys + 1));
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT(*fresh == CsdFixture::EnergyValue(6000.5f));
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
        KVCSD_CO_ASSERT(v == CsdFixture::EnergyValue(5000.5f));
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
    KVCSD_CO_ASSERT(rows[0].second == CsdFixture::EnergyValue(5000.5f));
    KVCSD_CO_ASSERT(rows[1].first == MakeFixedKey(kKeys + 1));
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Tentpole: incremental re-compaction folds the delta into the existing
// run without a full re-sort — most PIDX blocks are retained by reference,
// the delta is reclaimed, and every query type stays correct afterwards.
// --------------------------------------------------------------------------
TEST(MutabilityTest, IncrementalRecompactionFoldsDelta) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 4000;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("fold")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
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
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i) + 0.25f)));
    }
    for (std::uint64_t i = 600; i < 605; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 10),
                                       CsdFixture::EnergyValue(9000.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 11),
                                       CsdFixture::EnergyValue(9001.0f)));

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
    KVCSD_CO_ASSERT(*updated == CsdFixture::EnergyValue(500.25f));
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
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Satellite 3: a drop acknowledged while the keyspace is RECOMPACTING must
// defer until the fold finishes, then complete — never freeing the
// Keyspace under the running fold, never resurrecting the keyspace.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DropDuringRecompactionDefers) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
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
  }(&f.db));
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
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadCompactMutate(ref.db.get(), "pc"));
    testutil::RunSim(ref.sim,
                     VerifyMutatedView(ref.db.get(), "pc", &reference));
  }
  ASSERT_NE(reference, 0u);

  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "pc"));
  f.faults.Crash();  // lights out after the sync: delta log is durable
  f.Restart();
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "pc", &recovered));
  EXPECT_EQ(recovered, reference);

  // The replayed delta folds cleanly: re-compact and verify again.
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "pc", &folded));
  EXPECT_EQ(folded, reference);
}

// Crash at every named point in the re-compaction path; recovery must
// produce the same merged bytes regardless of where the fold died.
class RecompactCrashPointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RecompactCrashPointTest, RecoversToSameBytes) {
  const char* point = GetParam();

  std::uint32_t reference = 0;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadCompactMutate(ref.db.get(), "rc"));
    testutil::RunSim(ref.sim,
                     VerifyMutatedView(ref.db.get(), "rc", &reference));
  }
  ASSERT_NE(reference, 0u);

  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "rc"));
  f.faults.ArmCrashAtPoint(point, 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("rc");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), point);

  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "rc", &recovered));
  EXPECT_EQ(recovered, reference) << point;

  // And the fold completes cleanly on the recovered state.
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("rc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "rc", &folded));
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
// Pipelined fold (recompact.cc): dirty index blocks are read through a
// gather_fanout-wide window and the rebuilt blocks are appended in sketch
// order without waiting for each program. The window changes the fold's
// time, never its output, and a fault in the middle of a full window
// rolls the fold back as cleanly as a serial one.
// --------------------------------------------------------------------------

constexpr std::uint64_t kFoldKeys = 4000;

struct FoldFixture {
  sim::Simulation sim;
  sim::FaultInjector faults{7};
  DeviceConfig cfg;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  std::unique_ptr<Device> dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  explicit FoldFixture(std::uint32_t fanout = DeviceConfig{}.gather_fanout)
      : cfg(SmallDevice()) {
    cfg.gather_fanout = fanout;
    cfg.index_cache_enabled = false;  // every fold read goes to flash
    cfg.zns.faults = &faults;
    dev = std::make_unique<Device>(&sim, cfg, &qp);
    dev->Start();
  }

  Keyspace* ks() { return dev->keyspaces().Find("fold").value(); }
  std::uint64_t counter(const std::string& name) {
    return sim.stats().counter_value(name);
  }
  std::uint64_t fold_ns() {
    return sim.stats().histogram("device.recompact.fold_ns").sum();
  }

  // Folds the delta through the client API.
  void Fold() {
    testutil::RunSim(sim, [](client::Client* c) -> sim::Task<void> {
      auto ks = co_await c->OpenKeyspace("fold");
      KVCSD_CO_ASSERT_OK(ks);
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
      KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    }(&db));
  }
};

// Loads kFoldKeys energy-tagged keys, compacts them with an "energy"
// secondary index, then spreads a synced delta over every PIDX block:
// every 23rd key re-tagged, every 41st deleted, five inserts past the old
// maximum.
sim::Task<void> LoadCompactSpreadDelta(client::Client* db) {
  auto ks = co_await db->CreateKeyspace("fold");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < kFoldKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
  }
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(energy);
  KVCSD_CO_ASSERT_OK(co_await ks->CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  for (std::uint64_t i = 0; i < kFoldKeys; i += 23) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i),
        CsdFixture::EnergyValue(static_cast<float>(i) + 0.5f)));
  }
  for (std::uint64_t i = 7; i < kFoldKeys; i += 41) {
    KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(i)));
  }
  for (std::uint64_t i = kFoldKeys; i < kFoldKeys + 5; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(
        MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
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
void ExpectSameFoldLayout(FoldFixture* a, FoldFixture* b) {
  EXPECT_TRUE(SameSketch(a->ks()->pidx_sketch, b->ks()->pidx_sketch));
  EXPECT_TRUE(SameSketch(a->ks()->secondary_indexes.at("energy").sketch,
                         b->ks()->secondary_indexes.at("energy").sketch));
  std::uint32_t primary_a = 0, secondary_a = 0;
  std::uint32_t primary_b = 0, secondary_b = 0;
  testutil::RunSim(a->sim, FingerprintFold(&a->db, &primary_a, &secondary_a));
  testutil::RunSim(b->sim, FingerprintFold(&b->db, &primary_b, &secondary_b));
  EXPECT_EQ(primary_a, primary_b);
  EXPECT_EQ(secondary_a, secondary_b);
}

TEST(MutabilityTest, FoldWindowKeepsLayoutAndCutsFoldTime) {
  FoldFixture serial(1);
  FoldFixture windowed;
  ASSERT_GT(windowed.cfg.gather_fanout, 1u);
  for (FoldFixture* f : {&serial, &windowed}) {
    testutil::RunSim(f->sim, LoadCompactSpreadDelta(&f->db));
  }
  ExpectSameFoldLayout(&serial, &windowed);  // same starting point

  // Round 1: the delta dirties every PIDX block.
  serial.Fold();
  windowed.Fold();
  EXPECT_EQ(windowed.counter("device.recompact.done"), 1u);
  EXPECT_GT(windowed.counter("device.recompact.pidx_blocks_rebuilt"), 20u);
  EXPECT_EQ(windowed.counter("zns.pidx.appends"),
            serial.counter("zns.pidx.appends"));
  ExpectSameFoldLayout(&serial, &windowed);
  const std::uint64_t serial_round1 = serial.fold_ns();
  const std::uint64_t windowed_round1 = windowed.fold_ns();
  EXPECT_LT(windowed_round1, serial_round1);

  // Round 2: one overwrite. A single PIDX block is rebuilt either way, so
  // the time the window saves is the SIDX fold streaming every block.
  for (FoldFixture* f : {&serial, &windowed}) {
    testutil::RunSim(f->sim, [](client::Client* c) -> sim::Task<void> {
      auto ks = co_await c->OpenKeyspace("fold");
      KVCSD_CO_ASSERT_OK(ks);
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1234),
                                          CsdFixture::EnergyValue(-3.0f)));
      KVCSD_CO_ASSERT_OK(co_await ks->Sync());
    }(&f->db));
    f->Fold();
  }
  EXPECT_EQ(windowed.counter("device.recompact.done"), 2u);
  EXPECT_GT(windowed.counter("device.recompact.sidx_blocks_retained"), 20u);
  ExpectSameFoldLayout(&serial, &windowed);
  EXPECT_LT(windowed.fold_ns() - windowed_round1,
            serial.fold_ns() - serial_round1);
}

// Arms one I/O error rule for the fold and checks the rollback contract:
// the fold returns the injected error, the keyspace is COMPACTED again
// with its delta intact, every scratch cluster went back to the free
// pool, and a retried fold succeeds with the same merged bytes.
// `pidx_appends` is how many PIDX appends the fold got to issue first.
void ExpectFoldFaultRollsBack(sim::FaultOp op, std::uint64_t skip,
                              std::uint64_t pidx_appends) {
  FoldFixture f;
  testutil::RunSim(f.sim, LoadCompactSpreadDelta(&f.db));
  std::uint32_t primary = 0, secondary = 0;
  testutil::RunSim(f.sim, FingerprintFold(&f.db, &primary, &secondary));
  Keyspace* ks = f.ks();
  const std::size_t delta_keys = ks->delta_index.size();
  const std::size_t free_before = f.dev->zones().free_zones();
  const std::uint64_t pidx_appends_before = f.counter("zns.pidx.appends");

  sim::ErrorRule rule;
  rule.op = op;
  rule.skip = skip;
  f.faults.AddErrorRule(rule);
  Status folded = testutil::RunSim(f.sim, DeviceTestPeer::Fold(f.dev.get(), ks));
  EXPECT_EQ(folded.code(), StatusCode::kIoError) << folded.ToString();
  EXPECT_EQ(f.faults.errors_injected(), 1u);
  EXPECT_EQ(f.counter("zns.pidx.appends") - pidx_appends_before,
            pidx_appends);
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->delta_index.size(), delta_keys);
  EXPECT_EQ(f.dev->zones().free_zones(), free_before);
  EXPECT_EQ(f.counter("device.recompact.done"), 0u);
  std::uint32_t primary_after = 0, secondary_after = 0;
  testutil::RunSim(f.sim,
                   FingerprintFold(&f.db, &primary_after, &secondary_after));
  EXPECT_EQ(primary_after, primary);
  EXPECT_EQ(secondary_after, secondary);

  f.Fold();  // the rule fired once; the retry runs clean
  EXPECT_EQ(f.counter("device.recompact.done"), 1u);
  EXPECT_TRUE(ks->delta_index.empty());
  testutil::RunSim(f.sim,
                   FingerprintFold(&f.db, &primary_after, &secondary_after));
  EXPECT_EQ(primary_after, primary);
  EXPECT_EQ(secondary_after, secondary);
}

TEST(MutabilityTest, FoldReadErrorMidWindowRollsBack) {
  // With the cache off and every delta value inline, the fold's first
  // flash reads are the dirty PIDX blocks: read window + 3 fails while a
  // full window of reads is in flight, after the blocks ahead of it were
  // rebuilt and appended.
  const std::uint64_t window = DeviceConfig{}.gather_fanout;
  ExpectFoldFaultRollsBack(sim::FaultOp::kRead, window + 2, window + 2);
}

TEST(MutabilityTest, FoldAppendErrorMidWindowRollsBack) {
  // Before its first PIDX append the fold appends the RECOMPACTING
  // snapshot and one batch of delta values; PIDX append window + 2 fails.
  const std::uint64_t window = DeviceConfig{}.gather_fanout;
  ExpectFoldFaultRollsBack(sim::FaultOp::kAppend, 2 + window + 1, window + 1);
}

// --------------------------------------------------------------------------
// Delta watermark (device.cc MaybeRequestDeltaFold): with
// delta_fold_watermark_bytes set, the device folds the delta back into the
// run on its own once the in-DRAM delta index crosses the threshold — no
// host Compact() involved. Below the watermark nothing fires; at the
// crossing the fold runs exactly once, the gauge drains to zero, and the
// merged view survives the fold byte-identically.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaWatermarkTriggersAutomaticFold) {
  // Each delta overwrite costs kDeltaEntryOverhead(48) + 16-byte key +
  // value bytes in the index, so ~14 entries trip the fold.
  constexpr std::uint64_t kWatermark = 1024;
  constexpr std::uint64_t kKeys = 200;
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  DeviceConfig cfg = SmallDevice();
  cfg.delta_fold_watermark_bytes = kWatermark;
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp) -> sim::Task<void> {
    auto ks = (co_await dbp->CreateKeyspace("wm")).value();
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // 10 delta overwrites = 710 index bytes (48 overhead + 16 key + 7
    // value each): under the watermark, so the delta accumulates (gauge
    // grows) and no fold fires.
    std::uint64_t expect_bytes = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      expect_bytes += kDeltaEntryOverhead + 16 + model[i].second.size();
    }
    KVCSD_CO_ASSERT(
        simp->stats().counter_value("device.delta.watermark_folds") == 0);
    KVCSD_CO_ASSERT(expect_bytes < kWatermark);
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
                    expect_bytes);

    // Keep mutating until the crossing. Once the watermark trips, the
    // keyspace flips to RECOMPACTING and further puts bounce with kBusy —
    // that IS the fold starting, so stop writing and let it finish.
    std::uint64_t i = 10;
    while (simp->stats().counter_value("device.delta.watermark_folds") == 0) {
      KVCSD_CO_ASSERT(i < kKeys);  // the watermark must trip well before
      std::string value = "delta-" + std::to_string(i);
      Status s = co_await ks.Put(MakeFixedKey(i), value);
      if (s.code() == StatusCode::kBusy) break;
      KVCSD_CO_ASSERT_OK(s);
      model[i].second = std::move(value);
      ++i;
    }
    KVCSD_CO_ASSERT(
        simp->stats().counter_value("device.delta.watermark_folds") == 1);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Folded: state is back to COMPACTED, the delta index drained, and
    // the merged view kept every overwrite.
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

    // A second round of delta traffic re-arms the watermark: the fold is
    // recurring, not one-shot.
    std::uint64_t folds = 1;
    for (std::uint64_t j = 0; j < 40 && folds < 2; ++j) {
      std::string value = "again-" + std::to_string(j);
      Status s = co_await ks.Put(MakeFixedKey(j), value);
      if (s.code() == StatusCode::kBusy) {
        KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
        continue;
      }
      KVCSD_CO_ASSERT_OK(s);
      model[j].second = std::move(value);
      folds = simp->stats().counter_value("device.delta.watermark_folds");
    }
    KVCSD_CO_ASSERT(folds == 2);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  }(&db, &dev, &sim));
}

}  // namespace
}  // namespace kvcsd::device
