// Read-path acceleration tests (DESIGN.md §10): the DRAM index-block
// cache, the compaction-built bloom filter, and the deduping /
// channel-parallel value gather — plus the edge cases around them (empty
// sketches, keys outside the key range, cache invalidation on drop and
// re-compaction, bloom survival across power cycles, and injected I/O
// errors on cached vs. uncached block reads).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
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
  c.write_buffer_bytes = KiB(8);
  return c;
}

struct ReadPathFixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  Device dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  explicit ReadPathFixture(const DeviceConfig& cfg = SmallDevice())
      : dev(&sim, cfg, &qp) {
    dev.Start();
  }

  std::uint64_t Counter(const std::string& name) const {
    return sim.stats().counter_value(name);
  }
};

// Like ReadPathFixture but power-cyclable, with a fault injector always
// wired (mirrors recovery_test.cc).
struct PowerCycleFixture {
  sim::Simulation sim;
  sim::FaultInjector faults{7};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  explicit PowerCycleFixture(DeviceConfig config = SmallDevice())
      : cfg(config) {
    cfg.zns.faults = &faults;
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

  std::uint64_t Counter(const std::string& name) const {
    return sim.stats().counter_value(name);
  }
};

std::string DetValue(std::uint64_t i) { return "value-" + std::to_string(i); }

sim::Task<void> LoadAndCompact(client::Client* db, const std::string& name,
                               std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), DetValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

// A keyspace compacted while empty has an empty sketch (and an empty
// bloom filter): every query must answer cleanly from DRAM, never
// touching flash or the cache.
TEST(ReadPathTest, EmptyKeyspaceSketchAnswersWithoutIo) {
  ReadPathFixture f;
  testutil::RunSim(f.sim, [](ReadPathFixture* fx) -> sim::Task<void> {
    auto ks = co_await fx->db.CreateKeyspace("empty");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());

    auto got = co_await ks->Get(MakeFixedKey(1));
    KVCSD_CO_ASSERT(got.status().IsNotFound());
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());
  }(&f));
  EXPECT_EQ(f.Counter("device.read_cache.hits"), 0u);
  EXPECT_EQ(f.Counter("device.read_cache.misses"), 0u);
}

// A key below the first pivot short-circuits at the sketch — no index
// block is read whether the bloom filter is on or off, and with bloom on
// the negative is answered by the filter itself.
TEST(ReadPathTest, KeyBelowFirstPivotShortCircuits) {
  for (std::uint32_t bits : {std::uint32_t{0}, std::uint32_t{10}}) {
    DeviceConfig cfg = SmallDevice();
    cfg.bloom_bits_per_key = bits;
    ReadPathFixture f(cfg);
    testutil::RunSim(f.sim,
                     LoadAndCompact(&f.db, "lowkey", 500));
    const std::uint64_t misses_before = f.Counter("device.read_cache.misses");
    testutil::RunSim(f.sim, [](ReadPathFixture* fx) -> sim::Task<void> {
      auto ks = co_await fx->db.OpenKeyspace("lowkey");
      KVCSD_CO_ASSERT_OK(ks);
      // MakeFixedKey(0) (16 zero bytes) is the minimum loaded key; a
      // 4-byte prefix of it sorts strictly before every pivot.
      auto got = co_await ks->Get(std::string(4, '\0'));
      KVCSD_CO_ASSERT(got.status().IsNotFound());
    }(&f));
    // The lookup never reached flash: no cache miss, no cache fill.
    EXPECT_EQ(f.Counter("device.read_cache.misses"), misses_before) << bits;
    if (bits > 0) {
      EXPECT_GE(f.Counter("device.bloom.negative"), 1u);
    } else {
      EXPECT_EQ(f.Counter("device.bloom.negative"), 0u);
    }
  }
}

// Drop + re-create + re-compact under the same name: the cache is keyed
// by keyspace id (never reused) and invalidated on drop, so queries must
// see the new generation's data, never a stale cached block.
TEST(ReadPathTest, CacheInvalidatedAcrossDropAndRecreate) {
  ReadPathFixture f;
  testutil::RunSim(f.sim, [](ReadPathFixture* fx) -> sim::Task<void> {
    auto ks = co_await fx->db.CreateKeyspace("gen");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < 400; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), "gen1-" +
                                                               DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    // Warm the cache over the whole index.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 400);
    auto warm = co_await ks->Get(MakeFixedKey(7));
    KVCSD_CO_ASSERT_OK(warm);

    KVCSD_CO_ASSERT_OK(co_await fx->db.DropKeyspace("gen"));

    // Same name, different data: half the keys, different values.
    auto ks2 = co_await fx->db.CreateKeyspace("gen");
    KVCSD_CO_ASSERT_OK(ks2);
    for (std::uint64_t i = 0; i < 200; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await ks2->Put(MakeFixedKey(i), "gen2-" + DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks2->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks2->WaitCompaction());

    auto fresh = co_await ks2->Get(MakeFixedKey(7));
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT(*fresh == "gen2-" + DetValue(7));
    auto gone = co_await ks2->Get(MakeFixedKey(300));  // only in gen 1
    KVCSD_CO_ASSERT(gone.status().IsNotFound());
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks2->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 200);
    for (const auto& [key, value] : rows) {
      KVCSD_CO_ASSERT(value.rfind("gen2-", 0) == 0);
    }
  }(&f));
  EXPECT_GT(f.Counter("device.read_cache.hits"), 0u);
}

// The bloom filter is persisted with the metadata snapshot at compaction
// commit: after a power cut + Recover on a fresh Device, a missing key is
// still answered by the filter (bloom.negative fires on the new device)
// and present keys still read back.
TEST(ReadPathTest, BloomFilterSurvivesPowerCycle) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim, LoadAndCompact(f.db.get(), "bf", kKeys));
  ASSERT_FALSE(f.dev()->keyspaces().Find("bf").value()->pidx_bloom.empty());

  f.faults.Crash();
  f.Restart();
  const std::uint64_t neg_before = f.Counter("device.bloom.negative");
  testutil::RunSim(f.sim, [](PowerCycleFixture* fx) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await fx->dev()->Recover());
    auto ks = co_await fx->db->OpenKeyspace("bf");
    KVCSD_CO_ASSERT_OK(ks);
    // The recovered keyspace is immediately queryable: COMPACTED state,
    // sketch AND bloom came back from the snapshot.
    for (std::uint64_t i = 0; i < kKeys; i += 97) {
      auto got = co_await ks->Get(MakeFixedKey(i));
      KVCSD_CO_ASSERT_OK(got);
      KVCSD_CO_ASSERT(*got == DetValue(i));
    }
    auto missing = co_await ks->Get(MakeFixedKey(kKeys + 12345));
    KVCSD_CO_ASSERT(missing.status().IsNotFound());
  }(&f));
  EXPECT_GT(f.Counter("device.bloom.negative"), neg_before);
}

// Injected read errors on the PIDX zone: a get whose index block is
// cached never touches that zone and succeeds; a get needing an uncached
// block surfaces the IoError — and the failed read is NOT inserted, so
// the next (healthy) attempt re-reads flash and succeeds.
TEST(ReadPathTest, InjectedReadErrorCachedVsUncached) {
  PowerCycleFixture f;
  // ~600 16-byte keys span several 4 KB PIDX blocks.
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim, LoadAndCompact(f.db.get(), "flt", kKeys));

  Keyspace* ks_meta = f.dev()->keyspaces().Find("flt").value();
  ASSERT_GE(ks_meta->pidx_sketch.size(), 2u);
  const std::uint64_t zone_size = f.dev()->ssd().zone_size();
  const std::string key_a = MakeFixedKey(0);  // lives in sketch block 0
  // A key in the LAST block, so its block is distinct from block 0.
  const std::string key_b = MakeFixedKey(kKeys - 1);
  const std::uint64_t block_b_zone =
      ks_meta->pidx_sketch.back().block_addr / zone_size;

  testutil::RunSim(f.sim, [](PowerCycleFixture* fx, std::string ka,
                             std::string kb,
                             std::uint64_t bad_zone) -> sim::Task<void> {
    auto ks = co_await fx->db->OpenKeyspace("flt");
    KVCSD_CO_ASSERT_OK(ks);
    // Warm key A's index block only.
    KVCSD_CO_ASSERT_OK(co_await ks->Get(ka));

    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kRead;
    rule.zone = static_cast<std::int64_t>(bad_zone);
    rule.times = 1;
    fx->faults.AddErrorRule(rule);

    // Cached block + value on a different (sorted-values) zone: the get
    // never reads the poisoned zone, the rule stays armed.
    const std::uint64_t hits = fx->Counter("device.read_cache.hits");
    KVCSD_CO_ASSERT_OK(co_await ks->Get(ka));
    KVCSD_CO_ASSERT(fx->Counter("device.read_cache.hits") > hits);

    // Uncached block in the poisoned zone: the read fails...
    auto broken = co_await ks->Get(kb);
    KVCSD_CO_ASSERT(broken.status().code() == StatusCode::kIoError);

    // ...and was not cached: the retry misses again (rule now exhausted)
    // and succeeds from a clean flash read.
    const std::uint64_t misses = fx->Counter("device.read_cache.misses");
    auto retried = co_await ks->Get(kb);
    KVCSD_CO_ASSERT_OK(retried);
    KVCSD_CO_ASSERT(fx->Counter("device.read_cache.misses") > misses);
  }(&f, key_a, key_b, block_b_zone));
}

// A cache sized below the index working set evicts in LRU order and
// never exceeds its byte budget.
TEST(ReadPathTest, TinyCacheEvictsWithinBudget) {
  DeviceConfig cfg = SmallDevice();
  cfg.index_cache_bytes = 2 * cfg.index_block_size;  // two blocks
  ReadPathFixture f(cfg);
  testutil::RunSim(f.sim, LoadAndCompact(&f.db, "tiny", 1200));
  ASSERT_GE(f.dev.keyspaces().Find("tiny").value()->pidx_sketch.size(), 4u);
  testutil::RunSim(f.sim, [](ReadPathFixture* fx) -> sim::Task<void> {
    auto ks = co_await fx->db.OpenKeyspace("tiny");
    KVCSD_CO_ASSERT_OK(ks);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 1200);
  }(&f));
  const IndexBlockCache& cache = f.dev.index_cache();
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.charge(), cache.capacity());
  // Two full 4 KB blocks fill the budget; a partial tail block can ride
  // along only after an eviction made room.
  EXPECT_LE(cache.entries(), 3u);

  // Disabled cache: zero capacity, every read is uncached, no fills.
  DeviceConfig off = SmallDevice();
  off.index_cache_enabled = false;
  ReadPathFixture g(off);
  testutil::RunSim(g.sim, LoadAndCompact(&g.db, "off", 300));
  testutil::RunSim(g.sim, [](ReadPathFixture* gx) -> sim::Task<void> {
    auto ks = co_await gx->db.OpenKeyspace("off");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(5)));
    KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(5)));
  }(&g));
  EXPECT_EQ(g.dev.index_cache().entries(), 0u);
  EXPECT_EQ(g.Counter("device.read_cache.hits"), 0u);
}

// GatherValues dedupes identical (addr, len) refs into one flash read
// and fans results back out to every requesting slot, in request order.
TEST(ReadPathTest, GatherValuesDedupesIdenticalRefs) {
  ReadPathFixture f;
  testutil::RunSim(f.sim, LoadAndCompact(&f.db, "gv", 400));
  Keyspace* ks = f.dev.keyspaces().Find("gv").value();
  ASSERT_FALSE(ks->pidx_sketch.empty());
  // Any readable flash bytes do: the PIDX block itself gives known
  // (addr, len) extents.
  const std::uint64_t base = ks->pidx_sketch[0].block_addr;

  const std::uint64_t dups_before = f.Counter("device.gather.dup_refs");
  const std::uint64_t ranges_before = f.Counter("device.gather.ranges");
  testutil::RunSim(f.sim, [](ReadPathFixture* fx,
                             std::uint64_t addr) -> sim::Task<void> {
    using Ref = DeviceTestPeer::ValueRef;
    std::vector<Ref> refs = {Ref{addr, 64}, Ref{addr + 128, 64},
                             Ref{addr, 64}, Ref{addr, 64}};
    auto got = co_await DeviceTestPeer::Gather(&fx->dev, refs);
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(got->size() == 4);
    KVCSD_CO_ASSERT((*got)[0] == (*got)[2]);
    KVCSD_CO_ASSERT((*got)[0] == (*got)[3]);

    // Reference: the same extents read one at a time.
    std::vector<Ref> first_only = {Ref{addr, 64}};
    std::vector<Ref> second_only = {Ref{addr + 128, 64}};
    auto one = co_await DeviceTestPeer::Gather(&fx->dev, first_only);
    auto two = co_await DeviceTestPeer::Gather(&fx->dev, second_only);
    KVCSD_CO_ASSERT_OK(one);
    KVCSD_CO_ASSERT_OK(two);
    KVCSD_CO_ASSERT((*got)[0] == (*one)[0]);
    KVCSD_CO_ASSERT((*got)[1] == (*two)[0]);
  }(&f, base));
  // Two duplicate refs deduped; the 64-byte gap coalesces the two
  // distinct extents of the first gather into a single range read, and
  // the two single-ref reference gathers add one range each.
  EXPECT_EQ(f.Counter("device.gather.dup_refs"), dups_before + 2);
  EXPECT_EQ(f.Counter("device.gather.ranges"), ranges_before + 3);
}

sim::Task<void> TiedQuery(client::Client* db, std::uint32_t limit,
                          std::vector<std::pair<std::string, std::string>>*
                              rows) {
  auto ks = co_await db->OpenKeyspace("tied");
  KVCSD_CO_ASSERT_OK(ks);
  rows->clear();
  KVCSD_CO_ASSERT_OK(
      co_await ks->QuerySecondaryRangeF32("tag", 1.0f, 1.0f, limit, rows));
}

// When `limit` lands inside a run of rows sharing one secondary key, the
// cut is deterministic: SIDX blocks are sorted by (skey, pkey), so the
// survivors are always the smallest primary keys of the tie — identical
// across cache, prefetch, and gather-fanout configurations.
TEST(ReadPathTest, TiedSecondaryKeysCutDeterministicallyAtLimit) {
  // 28-byte pad + f32, like the VPIC particle payload: keys 100..249
  // share tag 1.0, the rest carry distinct tags.
  auto value_for = [](std::uint64_t i) {
    const float tag = (i >= 100 && i < 250) ? 1.0f : 2.0f + (i % 7);
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &tag, 4);
    v.append(buf, 4);
    return v;
  };

  std::vector<std::pair<std::string, std::string>> reference;
  DeviceConfig configs[3];
  configs[0] = SmallDevice();  // defaults: cache + bloom + prefetch + fanout 8
  configs[1] = SmallDevice();
  configs[1].gather_fanout = 1;
  configs[1].index_prefetch = false;
  configs[2] = SmallDevice();
  configs[2].index_cache_enabled = false;
  configs[2].bloom_bits_per_key = 0;

  for (int c = 0; c < 3; ++c) {
    ReadPathFixture f(configs[c]);
    testutil::RunSim(f.sim, [](ReadPathFixture* fx,
                               decltype(value_for)* mk) -> sim::Task<void> {
      auto ks = co_await fx->db.CreateKeyspace("tied");
      KVCSD_CO_ASSERT_OK(ks);
      auto writer = ks->NewBulkWriter();
      for (std::uint64_t i = 0; i < 400; ++i) {
        KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), (*mk)(i)));
      }
      KVCSD_CO_ASSERT_OK(co_await writer.Flush());
      nvme::SecondaryIndexSpec spec;
      spec.name = "tag";
      spec.value_offset = 28;
      spec.value_length = 4;
      spec.type = nvme::SecondaryKeyType::kF32;
      std::vector<nvme::SecondaryIndexSpec> specs = {spec};
      KVCSD_CO_ASSERT_OK(co_await ks->CompactWithIndexes(specs));
      KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    }(&f, &value_for));

    std::vector<std::pair<std::string, std::string>> rows;
    testutil::RunSim(f.sim, TiedQuery(&f.db, 40, &rows));
    ASSERT_EQ(rows.size(), 40u) << "config " << c;
    // The cut keeps the smallest pkeys of the tie: exactly 100..139.
    for (std::uint64_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].first, MakeFixedKey(100 + i)) << "config " << c;
      EXPECT_EQ(rows[i].second, value_for(100 + i)) << "config " << c;
    }
    if (c == 0) {
      reference = rows;
    } else {
      EXPECT_EQ(rows, reference) << "config " << c;
    }

    // An unlimited query returns the whole tie, still pkey-sorted.
    testutil::RunSim(f.sim, TiedQuery(&f.db, 0, &rows));
    EXPECT_EQ(rows.size(), 150u) << "config " << c;
  }
}

}  // namespace
}  // namespace kvcsd::device
