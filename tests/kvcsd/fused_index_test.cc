// Tests for the two paper extensions: explicit Sync (fsync, §VI) and the
// fused compaction + secondary-index pass (§V future work).
#include <gtest/gtest.h>

#include <cstring>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "kvcsd/device.h"

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

struct Fixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  Device dev{&sim, SmallDevice(), &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  Fixture() { dev.Start(); }

  static std::string EnergyValue(float energy) {
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &energy, 4);
    v.append(buf, 4);
    return v;
  }
};

TEST(SyncTest, PersistsBufferedWrites) {
  Fixture f;
  testutil::RunSim(f.sim, [](client::Client* db, Device* dev)
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
  }(&f.db, &f.dev));
}

TEST(FusedIndexTest, CompactWithIndexesBuildsEverythingInOnePass) {
  Fixture f;
  constexpr int kKeys = 3000;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("fused")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(
          (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                               Fixture::EnergyValue(
                                   static_cast<float>(i) * 0.01f)))
              .ok());
    }
    EXPECT_TRUE((co_await writer.Flush()).ok());

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
  }(&f.db));
}

TEST(FusedIndexTest, FusedAvoidsKeyspaceReRead) {
  // The whole point of the fused pass: building the index separately
  // re-reads every value from flash; fused extraction does not.
  auto run = [](bool fused) {
    Fixture f;
    std::uint64_t reads = 0;
    testutil::RunSim(f.sim, [](client::Client* db, Device* dev, bool fuse,
                               std::uint64_t* out) -> sim::Task<void> {
      auto ks = (co_await db->CreateKeyspace("x")).value();
      auto writer = ks.NewBulkWriter();
      for (int i = 0; i < 5000; ++i) {
        EXPECT_TRUE((co_await writer.Add(
                         MakeFixedKey(static_cast<std::uint64_t>(i)),
                         Fixture::EnergyValue(static_cast<float>(i))))
                        .ok());
      }
      EXPECT_TRUE((co_await writer.Flush()).ok());

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
    }(&f.db, &f.dev, fused, &reads));
    return reads;
  };
  const std::uint64_t separate_reads = run(false);
  const std::uint64_t fused_reads = run(true);
  EXPECT_LT(fused_reads, separate_reads);
}

TEST(FusedIndexTest, FusedAndSeparateAgreeOnResults) {
  auto query = [](bool fused) {
    Fixture f;
    std::vector<std::uint64_t> ids;
    testutil::RunSim(f.sim, [](client::Client* db, bool fuse,
                               std::vector<std::uint64_t>* out)
                                -> sim::Task<void> {
      auto ks = (co_await db->CreateKeyspace("x")).value();
      auto writer = ks.NewBulkWriter();
      for (int i = 0; i < 2000; ++i) {
        EXPECT_TRUE((co_await writer.Add(
                         MakeFixedKey(static_cast<std::uint64_t>(i)),
                         Fixture::EnergyValue(
                             static_cast<float>((i * 37) % 500))))
                        .ok());
      }
      EXPECT_TRUE((co_await writer.Flush()).ok());
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
    }(&f.db, fused, &ids));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(query(true), query(false));
}

// An index spec whose value_offset + value_length wraps 32 bits points
// far past every value. Both index builds must reject it like any other
// out-of-range spec and never read past a value's end.
TEST(FusedIndexTest, WrappedKeyRangeIsRejected) {
  Fixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto load = [](client::KeyspaceHandle* ks) -> sim::Task<void> {
      auto writer = ks->NewBulkWriter();
      for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(
            (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                                 Fixture::EnergyValue(static_cast<float>(i))))
                .ok());
      }
      EXPECT_TRUE((co_await writer.Flush()).ok());
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

    // Fused build: the compaction fails and rolls back to WRITABLE, and a
    // plain compaction afterwards succeeds.
    auto fused = (co_await db->CreateKeyspace("fused")).value();
    co_await load(&fused);
    nvme::SecondaryIndexSpec wrapped_f32;
    wrapped_f32.name = "wrapped_f32";
    wrapped_f32.value_offset = 0xFFFFFFFEu;
    wrapped_f32.value_length = 4;
    wrapped_f32.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs = {wrapped_f32};
    EXPECT_TRUE((co_await fused.CompactWithIndexes(specs)).ok());
    EXPECT_TRUE((co_await fused.WaitCompaction()).ok());
    EXPECT_EQ(co_await state_of(&fused), "WRITABLE");
    EXPECT_TRUE((co_await fused.Compact()).ok());
    EXPECT_TRUE((co_await fused.WaitCompaction()).ok());
    EXPECT_EQ(co_await state_of(&fused), "COMPACTED");
    EXPECT_EQ(co_await scan_all(&fused), 100u);
  }(&f.db));
}

TEST(SecondaryRangeTest, TiedKeysSpanningManyBlocksAllMatch) {
  // Regression: thousands of IDENTICAL secondary keys span many SIDX
  // blocks, so consecutive sketch pivots are equal. The range query must
  // start at the FIRST such block, not the last (tie-aware lower bound).
  Fixture f;
  constexpr int kKeys = 4000;  // ~30 B/entry -> dozens of 4 KB blocks
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("ties")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kKeys; ++i) {
      // Every particle has the same energy except the first hundred.
      const float energy = i < 100 ? 0.5f : 7.0f;
      EXPECT_TRUE(
          (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                               Fixture::EnergyValue(energy)))
              .ok());
    }
    EXPECT_TRUE((co_await writer.Flush()).ok());
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
  }(&f.db));
}

}  // namespace
}  // namespace kvcsd::device
