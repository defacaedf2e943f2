#include "lsm/db.h"

#include <gtest/gtest.h>

#include <map>

#include "../testutil.h"
#include "common/keys.h"
#include "common/random.h"

namespace kvcsd::lsm {
namespace {

struct DbFixture {
  sim::Simulation sim;
  sim::CpuPool cpu{&sim, "host", 8};
  storage::BlockSsd ssd{&sim, storage::BlockSsdConfig{}};
  hostenv::PageCache page_cache{MiB(256)};
  hostenv::Fs fs{&sim, &cpu, &ssd, &page_cache, hostenv::CostModel::Host()};
  LsmEnv env{&sim, &fs, &cpu, hostenv::CostModel::Host(), &sim.stats()};
  BlockCache block_cache{MiB(32)};

  DbOptions SmallOptions(CompactionMode mode = CompactionMode::kAuto) {
    DbOptions o;
    o.memtable_size = KiB(64);  // small so flushes/compactions trigger fast
    o.level_base_size = KiB(512);
    o.max_file_size = KiB(128);
    o.compaction_mode = mode;
    return o;
  }

  std::unique_ptr<Db> OpenDb(DbOptions o) {
    auto db = testutil::RunSim(sim, Db::Open(&env, &block_cache, o));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  void CloseDb(Db* db) {
    auto s = testutil::RunSim(sim, db->Close());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(DbTest, PutGetSmoke) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions());
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d->Put("key1", "value1")).ok());
    EXPECT_TRUE((co_await d->Put("key2", "value2")).ok());
    std::string v;
    EXPECT_TRUE((co_await d->Get("key1", &v)).ok());
    EXPECT_EQ(v, "value1");
    EXPECT_TRUE((co_await d->Get("missing", &v)).IsNotFound());
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, OverwriteAndDelete) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions());
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d->Put("k", "v1")).ok());
    EXPECT_TRUE((co_await d->Put("k", "v2")).ok());
    std::string v;
    EXPECT_TRUE((co_await d->Get("k", &v)).ok());
    EXPECT_EQ(v, "v2");
    EXPECT_TRUE((co_await d->Delete("k")).ok());
    EXPECT_TRUE((co_await d->Get("k", &v)).IsNotFound());
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, DataSurvivesFlushToL0) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions(CompactionMode::kNone));
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   "value-" + std::to_string(i)))
                      .ok());
    }
    EXPECT_TRUE((co_await d->Flush()).ok());
    co_await d->WaitForIdle();
  }(db.get()));
  EXPECT_GT(db->NumLevelFiles(0), 0);
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    std::string v;
    for (int i : {0, 999, 1999}) {
      EXPECT_TRUE((co_await d->Get(
                       MakeFixedKey(static_cast<std::uint64_t>(i)), &v))
                      .ok())
          << i;
      EXPECT_EQ(v, "value-" + std::to_string(i));
    }
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, AutoCompactionReducesL0AndPreservesData) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions(CompactionMode::kAuto));
  constexpr int kKeys = 20000;
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    Rng rng(1);
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   "value-" + std::to_string(i)))
                      .ok());
    }
    EXPECT_TRUE((co_await d->Flush()).ok());
    co_await d->WaitForIdle();
  }(db.get()));
  EXPECT_GT(db->stats().compactions, 0u);
  EXPECT_LT(db->NumLevelFiles(0), 4);
  EXPECT_GT(db->stats().compact_bytes_written, 0u);

  // Spot-check data after compaction moved it down the tree.
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    Rng rng(2);
    std::string v;
    for (int probe = 0; probe < 200; ++probe) {
      const auto i = rng.Uniform(kKeys);
      EXPECT_TRUE((co_await d->Get(MakeFixedKey(i), &v)).ok()) << i;
      EXPECT_EQ(v, "value-" + std::to_string(i));
    }
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, DeferredCompactionSinglePass) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions(CompactionMode::kDeferred));
  constexpr int kKeys = 10000;
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   "v" + std::to_string(i)))
                      .ok());
    }
    // No automatic compaction in this mode.
    EXPECT_TRUE((co_await d->Flush()).ok());
    co_await d->WaitForIdle();
  }(db.get()));
  EXPECT_EQ(db->stats().compactions, 0u);
  const int l0_before = db->NumLevelFiles(0);
  EXPECT_GT(l0_before, 0);

  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d->CompactRange()).ok());
  }(db.get()));
  EXPECT_EQ(db->NumLevelFiles(0), 0);
  EXPECT_GT(db->NumLevelFiles(VersionSet::kNumLevels - 1), 0);
  EXPECT_EQ(db->NumEntriesApprox(), static_cast<std::uint64_t>(kKeys));

  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    std::string v;
    for (int i : {0, 5000, 9999}) {
      EXPECT_TRUE(
          (co_await d->Get(MakeFixedKey(static_cast<std::uint64_t>(i)), &v))
              .ok());
      EXPECT_EQ(v, "v" + std::to_string(i));
    }
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, WriteStallsWhenL0Fills) {
  DbFixture f;
  auto options = f.SmallOptions(CompactionMode::kAuto);
  options.l0_stall_trigger = 6;
  auto db = f.OpenDb(options);
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    for (int i = 0; i < 30000; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   std::string(64, 'x')))
                      .ok());
    }
    EXPECT_TRUE((co_await d->Flush()).ok());
    co_await d->WaitForIdle();
  }(db.get()));
  // With a tight stall trigger and slow compaction, stalls must occur.
  EXPECT_GT(db->stats().stalls, 0u);
  EXPECT_GT(db->stats().stall_time, 0u);
  f.CloseDb(db.get());
}

TEST(DbTest, RangeScanReturnsSortedWindow) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions());
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    for (int i = 0; i < 5000; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   "v" + std::to_string(i)))
                      .ok());
    }
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE((co_await d->RangeScan(MakeFixedKey(1000),
                                       MakeFixedKey(1099), 0, &out))
                    .ok());
    EXPECT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].first, MakeFixedKey(1000 + i));
      EXPECT_EQ(out[i].second, "v" + std::to_string(1000 + i));
    }
    // Limit is honoured.
    out.clear();
    EXPECT_TRUE((co_await d->RangeScan(MakeFixedKey(0),
                                       MakeFixedKey(4999), 10, &out))
                    .ok());
    EXPECT_EQ(out.size(), 10u);
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, ScanSkipsDeletedAndShadowedKeys) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions());
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d->Put("a", "v1")).ok());
    EXPECT_TRUE((co_await d->Put("b", "v1")).ok());
    EXPECT_TRUE((co_await d->Put("c", "v1")).ok());
    EXPECT_TRUE((co_await d->Put("b", "v2")).ok());  // shadow
    EXPECT_TRUE((co_await d->Delete("c")).ok());     // tombstone
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE((co_await d->RangeScan("a", "z", 0, &out)).ok());
    EXPECT_EQ(out.size(), 2u);
    if (out.size() != 2u) co_return;
    EXPECT_EQ(out[0].first, "a");
    EXPECT_EQ(out[1].first, "b");
    EXPECT_EQ(out[1].second, "v2");
  }(db.get()));
  f.CloseDb(db.get());
}

TEST(DbTest, RecoveryFromWalAfterUncleanStop) {
  DbFixture f;
  auto options = f.SmallOptions();
  options.name = "recover_me";
  {
    auto db = f.OpenDb(options);
    testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
      EXPECT_TRUE((co_await d->Put("persisted", "yes")).ok());
      EXPECT_TRUE((co_await d->Put("also", "this")).ok());
    }(db.get()));
    f.CloseDb(db.get());
    // db destroyed without Flush: data lives only in WAL + memtable.
  }
  auto db2 = f.OpenDb(options);
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    std::string v;
    EXPECT_TRUE((co_await d->Get("persisted", &v)).ok());
    EXPECT_EQ(v, "yes");
    EXPECT_TRUE((co_await d->Get("also", &v)).ok());
    EXPECT_EQ(v, "this");
  }(db2.get()));
  f.CloseDb(db2.get());
}

TEST(DbTest, RecoveryFromManifestAfterFlush) {
  DbFixture f;
  auto options = f.SmallOptions(CompactionMode::kNone);
  options.name = "manifested";
  {
    auto db = f.OpenDb(options);
    testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
      for (int i = 0; i < 3000; ++i) {
        EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                         static_cast<std::uint64_t>(i)),
                                     "v" + std::to_string(i)))
                        .ok());
      }
      EXPECT_TRUE((co_await d->Flush()).ok());
    }(db.get()));
    f.CloseDb(db.get());
  }
  auto db2 = f.OpenDb(options);
  EXPECT_GT(db2->NumLevelFiles(0), 0);
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    std::string v;
    EXPECT_TRUE((co_await d->Get(MakeFixedKey(1234), &v)).ok());
    EXPECT_EQ(v, "v1234");
  }(db2.get()));
  f.CloseDb(db2.get());
}

TEST(DbTest, CompactionModeNoneNeverCompacts) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions(CompactionMode::kNone));
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    for (int i = 0; i < 10000; ++i) {
      EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                       static_cast<std::uint64_t>(i)),
                                   "v"))
                      .ok());
    }
    EXPECT_TRUE((co_await d->Flush()).ok());
    co_await d->WaitForIdle();
  }(db.get()));
  EXPECT_EQ(db->stats().compactions, 0u);
  EXPECT_GE(db->NumLevelFiles(0), 4);  // files pile up in L0
  f.CloseDb(db.get());
}

TEST(DbTest, IoStatsDifferByCompactionMode) {
  // Auto compaction rewrites data repeatedly: device writes should exceed
  // the no-compaction configuration's writes for identical inserts. This
  // is the mechanism behind the paper's Fig. 7b.
  auto run = [](CompactionMode mode) {
    DbFixture f;
    auto db = f.OpenDb(f.SmallOptions(mode));
    testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
      for (int i = 0; i < 20000; ++i) {
        EXPECT_TRUE((co_await d->Put(MakeFixedKey(
                                         static_cast<std::uint64_t>(i)),
                                     std::string(32, 'v')))
                        .ok());
      }
      EXPECT_TRUE((co_await d->Flush()).ok());
      co_await d->WaitForIdle();
    }(db.get()));
    const std::uint64_t written = f.fs.device_bytes_written();
    auto s = testutil::RunSim(f.sim, db->Close());
    EXPECT_TRUE(s.ok());
    return written;
  };
  const std::uint64_t auto_writes = run(CompactionMode::kAuto);
  const std::uint64_t none_writes = run(CompactionMode::kNone);
  EXPECT_GT(auto_writes, none_writes * 3 / 2)
      << "auto=" << auto_writes << " none=" << none_writes;
}

TEST(DbTest, SharedBlockCacheDoesNotLeakBlocksAcrossInstances) {
  // Regression: two instances share one BlockCache and assign identical
  // per-instance SSTable file numbers. Cached blocks must be namespaced
  // per instance, or one DB's reads silently return the other's data.
  DbFixture f;
  auto options_a = f.SmallOptions(CompactionMode::kAuto);
  options_a.name = "dbA";
  auto options_b = f.SmallOptions(CompactionMode::kAuto);
  options_b.name = "dbB";
  auto db_a = f.OpenDb(options_a);
  auto db_b = f.OpenDb(options_b);

  constexpr int kKeys = 5000;
  testutil::RunSim(f.sim, [](Db* a, Db* b) -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = MakeFixedKey(static_cast<std::uint64_t>(i));
      EXPECT_TRUE((co_await a->Put(key, "A" + std::to_string(i))).ok());
      EXPECT_TRUE((co_await b->Put(key, "B" + std::to_string(i))).ok());
    }
    EXPECT_TRUE((co_await a->Flush()).ok());
    EXPECT_TRUE((co_await b->Flush()).ok());
    co_await a->WaitForIdle();
    co_await b->WaitForIdle();
  }(db_a.get(), db_b.get()));

  // Interleave reads so both instances populate and hit the shared cache.
  testutil::RunSim(f.sim, [](Db* a, Db* b) -> sim::Task<void> {
    Rng rng(12);
    std::string value;
    for (int probe = 0; probe < 500; ++probe) {
      const auto i = rng.Uniform(kKeys);
      const std::string key = MakeFixedKey(i);
      EXPECT_TRUE((co_await a->Get(key, &value)).ok());
      EXPECT_EQ(value, "A" + std::to_string(i));
      EXPECT_TRUE((co_await b->Get(key, &value)).ok());
      EXPECT_EQ(value, "B" + std::to_string(i));
    }
    // Seek-based scans must also see only their own instance's data.
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE((co_await a->RangeScan(MakeFixedKey(100), MakeFixedKey(199),
                                       0, &out))
                    .ok());
    EXPECT_EQ(out.size(), 100u);
    for (const auto& [key, value2] : out) {
      EXPECT_EQ(value2[0], 'A');
    }
  }(db_a.get(), db_b.get()));
  f.CloseDb(db_a.get());
  f.CloseDb(db_b.get());
}

TEST(DbTest, CloseIsIdempotentAndBlocksNewWrites) {
  DbFixture f;
  auto db = f.OpenDb(f.SmallOptions());
  f.CloseDb(db.get());
  f.CloseDb(db.get());
  testutil::RunSim(f.sim, [](Db* d) -> sim::Task<void> {
    auto s = co_await d->Put("k", "v");
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }(db.get()));
}

}  // namespace
}  // namespace kvcsd::lsm
