// Tests for the two paper extensions: explicit Sync (fsync, §VI) and the
// fused compaction + secondary-index pass (§V future work).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "device_test_peer.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
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

TEST(SyncTest, PersistsBufferedWrites) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db, Device* dev)
                              -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("synced")).value();
    // A handful of puts: far below the 8 KiB buffer, so nothing has been
    // flushed to flash yet.
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await ks.Put(
                       MakeFixedKey(static_cast<std::uint64_t>(i)), "v"))
                      .ok());
    }
    const std::uint64_t before = dev->ssd().total_bytes_written();
    EXPECT_TRUE((co_await ks.Sync()).ok());
    // Sync forced the buffer into the KLOG/VLOG zones.
    EXPECT_GT(dev->ssd().total_bytes_written(), before);
    // Sync on a compacted keyspace is a no-op success.
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    EXPECT_TRUE((co_await ks.Sync()).ok());
  }(&f.client(), &f.dev()));
}

TEST(FusedIndexTest, CompactWithIndexesBuildsEverythingInOnePass) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 3000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("fused")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(
          (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                               EnergyValue(
                                   static_cast<float>(i) * 0.01f)))
              .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());

    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(std::move(energy));
    EXPECT_TRUE((co_await ks.CompactWithIndexes(std::move(specs))).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());

    // Primary queries work...
    auto v = co_await ks.Get(MakeFixedKey(1234));
    EXPECT_TRUE(v.ok());

    // ...and the fused index answers secondary queries with no separate
    // build step.
    std::vector<std::pair<std::string, std::string>> hits;
    EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32("energy", 10.0f,
                                                    10.495f, 0, &hits))
                    .ok());
    EXPECT_EQ(hits.size(), 50u);  // ids 1000..1049
  }(&f.client()));
}

TEST(FusedIndexTest, FusedAvoidsKeyspaceReRead) {
  // The whole point of the fused pass: building the index separately
  // re-reads every value from flash; fused extraction does not.
  auto run = [](bool fused) {
    harness::CsdTestbed f(testutil::Bed(SmallDevice()));
    std::uint64_t reads = 0;
    testutil::RunSim(f.sim(), [](client::Client* db, Device* dev, bool fuse,
                                 std::uint64_t* out) -> sim::Task<void> {
      auto ks = (co_await db->CreateKeyspace("x")).value();
      auto writer = ks.NewBulkWriter();
      for (int i = 0; i < 5000; ++i) {
        EXPECT_TRUE((co_await writer.Add(
                         MakeFixedKey(static_cast<std::uint64_t>(i)),
                         EnergyValue(static_cast<float>(i))))
                        .ok());
      }
      EXPECT_TRUE((co_await writer.Drain()).ok());

      nvme::SecondaryIndexSpec energy;
      energy.name = "energy";
      energy.value_offset = 28;
      energy.value_length = 4;
      energy.type = nvme::SecondaryKeyType::kF32;
      if (fuse) {
        std::vector<nvme::SecondaryIndexSpec> specs;
        specs.push_back(std::move(energy));
        EXPECT_TRUE((co_await ks.CompactWithIndexes(std::move(specs))).ok());
        EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
      } else {
        EXPECT_TRUE((co_await ks.Compact()).ok());
        EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
        EXPECT_TRUE(
            (co_await ks.CreateSecondaryIndex(std::move(energy))).ok());
      }
      *out = dev->ssd().total_bytes_read();
    }(&f.client(), &f.dev(), fused, &reads));
    return reads;
  };
  const std::uint64_t separate_reads = run(false);
  const std::uint64_t fused_reads = run(true);
  EXPECT_LT(fused_reads, separate_reads);
}

TEST(FusedIndexTest, FusedAndSeparateAgreeOnResults) {
  auto query = [](bool fused) {
    harness::CsdTestbed f(testutil::Bed(SmallDevice()));
    std::vector<std::uint64_t> ids;
    testutil::RunSim(f.sim(), [](client::Client* db, bool fuse,
                                 std::vector<std::uint64_t>* out)
                                -> sim::Task<void> {
      auto ks = (co_await db->CreateKeyspace("x")).value();
      auto writer = ks.NewBulkWriter();
      for (int i = 0; i < 2000; ++i) {
        EXPECT_TRUE((co_await writer.Add(
                         MakeFixedKey(static_cast<std::uint64_t>(i)),
                         EnergyValue(
                             static_cast<float>((i * 37) % 500))))
                        .ok());
      }
      EXPECT_TRUE((co_await writer.Drain()).ok());
      nvme::SecondaryIndexSpec energy;
      energy.name = "energy";
      energy.value_offset = 28;
      energy.value_length = 4;
      energy.type = nvme::SecondaryKeyType::kF32;
      if (fuse) {
        std::vector<nvme::SecondaryIndexSpec> specs;
        specs.push_back(std::move(energy));
        EXPECT_TRUE((co_await ks.CompactWithIndexes(std::move(specs))).ok());
        EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
      } else {
        EXPECT_TRUE((co_await ks.Compact()).ok());
        EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
        EXPECT_TRUE(
            (co_await ks.CreateSecondaryIndex(std::move(energy))).ok());
      }
      std::vector<std::pair<std::string, std::string>> hits;
      EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32("energy", 100.0f,
                                                      200.0f, 0, &hits))
                      .ok());
      for (const auto& [pkey, value] : hits) {
        out->push_back(FixedKeyId(pkey));
      }
    }(&f.client(), fused, &ids));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(query(true), query(false));
}

// An index spec whose value_offset + value_length wraps 32 bits points
// far past every value. Both index builds must reject it like any other
// out-of-range spec and never read past a value's end.
TEST(FusedIndexTest, WrappedKeyRangeIsRejected) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto load = [](client::KeyspaceHandle* ks) -> sim::Task<void> {
      auto writer = ks->NewBulkWriter();
      for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(
            (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                                 EnergyValue(static_cast<float>(i))))
                .ok());
      }
      EXPECT_TRUE((co_await writer.Drain()).ok());
    };
    auto state_of = [](client::KeyspaceHandle* ks) -> sim::Task<std::string> {
      auto stat = co_await ks->GetStat();
      co_return stat.ok() ? stat->state : stat.status().ToString();
    };
    auto scan_all = [](client::KeyspaceHandle* ks) -> sim::Task<std::size_t> {
      std::vector<std::pair<std::string, std::string>> rows;
      EXPECT_TRUE(
          (co_await ks->Scan(MakeFixedKey(0), MakeFixedKey(99), 0, &rows))
              .ok());
      co_return rows.size();
    };

    // Separate build on a COMPACTED keyspace: rejected, keyspace intact.
    auto ks = (co_await db->CreateKeyspace("separate")).value();
    co_await load(&ks);
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    nvme::SecondaryIndexSpec wrapped;
    wrapped.name = "wrapped";
    wrapped.value_offset = 0xFFFFFFF0u;
    wrapped.value_length = 0x20;
    wrapped.type = nvme::SecondaryKeyType::kBytes;
    const Status built = co_await ks.CreateSecondaryIndex(wrapped);
    EXPECT_EQ(built.code(), StatusCode::kInvalidArgument) << built.ToString();
    EXPECT_EQ(co_await state_of(&ks), "COMPACTED");
    EXPECT_EQ(co_await scan_all(&ks), 100u);
    EXPECT_TRUE((co_await ks.Get(MakeFixedKey(42))).ok());

    // Fused build: the compaction fails, the wait reports it, the
    // keyspace rolls back to WRITABLE, and a plain compaction afterwards
    // succeeds.
    auto fused = (co_await db->CreateKeyspace("fused")).value();
    co_await load(&fused);
    nvme::SecondaryIndexSpec wrapped_f32;
    wrapped_f32.name = "wrapped_f32";
    wrapped_f32.value_offset = 0xFFFFFFFEu;
    wrapped_f32.value_length = 4;
    wrapped_f32.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs = {wrapped_f32};
    EXPECT_TRUE((co_await fused.CompactWithIndexes(specs)).ok());
    const Status waited = co_await fused.WaitCompaction();
    EXPECT_EQ(waited.code(), StatusCode::kInvalidArgument) << waited.ToString();
    EXPECT_EQ(co_await state_of(&fused), "WRITABLE");
    EXPECT_TRUE((co_await fused.Compact()).ok());
    EXPECT_TRUE((co_await fused.WaitCompaction()).ok());
    EXPECT_EQ(co_await state_of(&fused), "COMPACTED");
    EXPECT_EQ(co_await scan_all(&fused), 100u);
  }(&f.client()));
}

// ---------------------------------------------------------------------------
// Resident and spilled SIDX builds
// ---------------------------------------------------------------------------

// A build whose tuples fit its sort budget sorts them in DRAM and packs
// them straight into SIDX blocks; a build over budget spills sorted runs
// to TEMP zones and merges them. Both must write the same index.
constexpr int kResidentKeys = 2000;

// Energies with ties (about five particles share each), scattered so that
// secondary-key order is unrelated to primary-key order: a sort that
// ignores the primary key within a tie shows up in the tuple stream.
float ResidentEnergy(int i) {
  return static_cast<float>((static_cast<std::uint64_t>(i) * 7919u) % 397u);
}

nvme::SecondaryIndexSpec EnergySpec() {
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  return energy;
}

// Everything a build leaves that a reader can observe.
struct SidxBuild {
  // (skey, pkey, vlen) of every tuple, in block order. Each tuple's value
  // address is checked against the primary index instead: it names
  // SORTED_VALUES bytes, whose zones move with the TEMP zones the
  // compaction took.
  std::vector<std::tuple<std::string, std::string, std::uint32_t>> tuples;
  std::vector<std::string> pivots;
  std::uint64_t entries = 0;
  std::uint64_t runs_spilled = 0;
  // TEMP bytes appended by the whole compaction + index build.
  std::uint64_t temp_bytes = 0;
  std::vector<std::pair<std::string, std::string>> range_rows;
  std::vector<std::pair<std::string, std::string>> select_rows;
};

// Reads every block of `sketch` and hands each entry to `visit`.
template <typename Entry, typename Visit>
sim::Task<void> ForEachBlockEntry(Device* dev, const Keyspace* ks,
                                  const std::vector<SketchEntry>* sketch,
                                  Visit* visit) {
  for (const SketchEntry& entry : *sketch) {
    auto block = co_await DeviceTestPeer::ReadIndexBlock(dev, ks->id, entry);
    KVCSD_CO_ASSERT_OK(block);
    KVCSD_CO_ASSERT_OK(wire::ForEachIndexEntry<Entry>(
        *block, [visit](const Entry& e) {
          (*visit)(e);
          return true;
        }));
  }
}

enum class Build { kNone, kSeparate, kFused };

// Loads kResidentKeys particles and compacts them, building the energy
// index fused into the compaction, separately after it, or not at all,
// with `sort_run_bytes` (0: the default budget). Reads back what the
// build wrote.
SidxBuild BuildEnergyIndex(Build build, std::uint64_t sort_run_bytes) {
  DeviceConfig config = SmallDevice();
  config.sort_run_bytes = sort_run_bytes;
  harness::CsdTestbed f(testutil::Bed(config));
  SidxBuild out;
  testutil::RunSim(f.sim(), [](client::Client* db, Build b) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("x")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kResidentKeys; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                              EnergyValue(ResidentEnergy(i))));
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Drain());
    if (b == Build::kFused) {
      std::vector<nvme::SecondaryIndexSpec> specs = {EnergySpec()};
      KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    } else {
      KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    }
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    if (b == Build::kSeparate) {
      KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndex(EnergySpec()));
    }
  }(&f.client(), build));
  out.runs_spilled = f.sim().stats().counter_value("device.sidx.runs_spilled");
  out.temp_bytes = f.sim().stats().counter_value("zns.temp.append_bytes");
  if (build == Build::kNone) return out;

  Keyspace* ks = f.dev().keyspaces().Find("x").value();
  const SecondaryIndex& sidx = ks->secondary_indexes.at("energy");
  out.entries = sidx.entries;
  for (const SketchEntry& entry : sidx.sketch) out.pivots.push_back(entry.pivot);
  std::map<std::string, std::uint64_t> pidx_vaddr;
  auto note_pidx = [&pidx_vaddr](const wire::PidxEntry& e) {
    pidx_vaddr[e.key.ToString()] = e.vaddr;
  };
  testutil::RunSim(f.sim(), ForEachBlockEntry<wire::PidxEntry>(
                              &f.dev(), ks, &ks->pidx_sketch, &note_pidx));
  EXPECT_EQ(pidx_vaddr.size(), static_cast<std::size_t>(kResidentKeys));
  auto note_sidx = [&out, &pidx_vaddr](const wire::SidxEntry& e) {
    out.tuples.emplace_back(e.skey.ToString(), e.pkey.ToString(), e.vlen);
    const auto it = pidx_vaddr.find(e.pkey.ToString());
    ASSERT_TRUE(it != pidx_vaddr.end());
    EXPECT_EQ(e.vaddr, it->second);
  };
  testutil::RunSim(f.sim(), ForEachBlockEntry<wire::SidxEntry>(
                              &f.dev(), ks, &sidx.sketch, &note_sidx));

  testutil::RunSim(f.sim(), [](client::Client* db,
                               SidxBuild* result) -> sim::Task<void> {
    auto handle = (co_await db->OpenKeyspace("x")).value();
    KVCSD_CO_ASSERT_OK(co_await handle.QuerySecondaryRangeF32(
        "energy", 100.0f, 140.0f, 0, &result->range_rows));
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    opts.limit = 300;
    KVCSD_CO_ASSERT_OK(co_await handle.Select(
        nvme::EncodeSecondaryF32(250.0f), nvme::EncodeSecondaryF32(396.0f),
        opts, &result->select_rows));
  }(&f.client(), &out));
  return out;
}

// Builds the index both ways and checks they wrote the same index, and
// that only the spilled build touched TEMP zones beyond the key sort.
void ExpectResidentMatchesSpilled(Build build) {
  const SidxBuild resident = BuildEnergyIndex(build, 0);
  const SidxBuild spilled = BuildEnergyIndex(build, KiB(4));
  EXPECT_EQ(resident.entries, static_cast<std::uint64_t>(kResidentKeys));
  EXPECT_EQ(resident.entries, spilled.entries);
  EXPECT_EQ(resident.tuples.size(), resident.entries);
  EXPECT_TRUE(resident.tuples == spilled.tuples);
  EXPECT_EQ(resident.pivots, spilled.pivots);
  EXPECT_GT(resident.pivots.size(), 1u);
  EXPECT_FALSE(resident.range_rows.empty());
  EXPECT_EQ(resident.range_rows, spilled.range_rows);
  EXPECT_EQ(resident.select_rows.size(), 300u);
  EXPECT_EQ(resident.select_rows, spilled.select_rows);

  // Which path ran: the resident build spilled nothing, the other merged
  // several runs.
  EXPECT_EQ(resident.runs_spilled, 0u);
  EXPECT_GT(spilled.runs_spilled, 1u);
  // The resident build took no TEMP zone: its TEMP bytes are the key
  // sort's, exactly those of a compaction that builds no index with the
  // same key share (a fused build halves it, which can make the key runs
  // spill where a plain compaction keeps them in DRAM). The spilled build
  // wrote its runs on top.
  const std::uint64_t key_share =
      SmallDevice().EffectiveSortRunBytes() / (build == Build::kFused ? 2 : 1);
  EXPECT_EQ(resident.temp_bytes,
            BuildEnergyIndex(Build::kNone, key_share).temp_bytes);
  EXPECT_GT(spilled.temp_bytes,
            BuildEnergyIndex(Build::kNone, KiB(4)).temp_bytes);
}

TEST(ResidentSidxBuildTest, SeparateBuildMatchesSpilledBuild) {
  ExpectResidentMatchesSpilled(Build::kSeparate);
}

TEST(ResidentSidxBuildTest, FusedBuildMatchesSpilledBuild) {
  ExpectResidentMatchesSpilled(Build::kFused);
}

TEST(SecondaryRangeTest, TiedKeysSpanningManyBlocksAllMatch) {
  // Regression: thousands of IDENTICAL secondary keys span many SIDX
  // blocks, so consecutive sketch pivots are equal. The range query must
  // start at the FIRST such block, not the last (tie-aware lower bound).
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 4000;  // ~30 B/entry -> dozens of 4 KB blocks
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("ties")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kKeys; ++i) {
      // Every particle has the same energy except the first hundred.
      const float energy = i < 100 ? 0.5f : 7.0f;
      EXPECT_TRUE(
          (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                               EnergyValue(energy)))
              .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    EXPECT_TRUE((co_await ks.CreateSecondaryIndexF32("energy", 28)).ok());

    std::vector<std::pair<std::string, std::string>> hits;
    EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32("energy", 7.0f, 7.0f, 0,
                                                    &hits))
                    .ok());
    EXPECT_EQ(hits.size(), static_cast<std::size_t>(kKeys - 100));

    hits.clear();
    EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32("energy", 0.4f, 0.6f, 0,
                                                    &hits))
                    .ok());
    EXPECT_EQ(hits.size(), 100u);
  }(&f.client()));
}

}  // namespace
}  // namespace kvcsd::device
