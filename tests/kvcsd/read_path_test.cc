// Read-path acceleration tests (DESIGN.md §10): the DRAM index-block
// cache, the compaction-built bloom filter, and the deduping /
// channel-parallel value gather — plus the edge cases around them (empty
// sketches, keys outside the key range, cache invalidation on drop and
// re-compaction, bloom survival across power cycles, and injected I/O
// errors on cached vs. uncached block reads).
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
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

std::uint64_t Counter(harness::CsdTestbed& f, const std::string& name) {
  return f.sim().stats().counter_value(name);
}

std::string DetValue(std::uint64_t i) { return "value-" + std::to_string(i); }

sim::Task<void> LoadAndCompact(client::Client* db, const std::string& name,
                               std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), DetValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Drain());
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

// A keyspace compacted while empty has an empty sketch (and an empty
// bloom filter): every query must answer cleanly from DRAM, never
// touching flash or the cache.
TEST(ReadPathTest, EmptyKeyspaceSketchAnswersWithoutIo) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->client().CreateKeyspace("empty");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());

    auto got = co_await ks->Get(MakeFixedKey(1));
    KVCSD_CO_ASSERT(got.status().IsNotFound());
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());
  }(&f));
  EXPECT_EQ(Counter(f, "device.read_cache.hits"), 0u);
  EXPECT_EQ(Counter(f, "device.read_cache.misses"), 0u);
}

// A key below the first pivot short-circuits at the sketch — no index
// block is read whether the bloom filter is on or off, and with bloom on
// the negative is answered by the filter itself.
TEST(ReadPathTest, KeyBelowFirstPivotShortCircuits) {
  for (std::uint32_t bits : {std::uint32_t{0}, std::uint32_t{10}}) {
    DeviceConfig cfg = SmallDevice();
    cfg.bloom_bits_per_key = bits;
    harness::CsdTestbed f(testutil::Bed(cfg));
    testutil::RunSim(f.sim(),
                     LoadAndCompact(&f.client(), "lowkey", 500));
    const std::uint64_t misses_before = Counter(f, "device.read_cache.misses");
    testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx) -> sim::Task<void> {
      auto ks = co_await fx->client().OpenKeyspace("lowkey");
      KVCSD_CO_ASSERT_OK(ks);
      // MakeFixedKey(0) (16 zero bytes) is the minimum loaded key; a
      // 4-byte prefix of it sorts strictly before every pivot.
      auto got = co_await ks->Get(std::string(4, '\0'));
      KVCSD_CO_ASSERT(got.status().IsNotFound());
    }(&f));
    // The lookup never reached flash: no cache miss, no cache fill.
    EXPECT_EQ(Counter(f, "device.read_cache.misses"), misses_before) << bits;
    if (bits > 0) {
      EXPECT_GE(Counter(f, "device.bloom.negative"), 1u);
    } else {
      EXPECT_EQ(Counter(f, "device.bloom.negative"), 0u);
    }
  }
}

// Drop + re-create + re-compact under the same name: the cache is keyed
// by keyspace id (never reused) and invalidated on drop, so queries must
// see the new generation's data, never a stale cached block.
TEST(ReadPathTest, CacheInvalidatedAcrossDropAndRecreate) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->client().CreateKeyspace("gen");
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

    KVCSD_CO_ASSERT_OK(co_await fx->client().DropKeyspace("gen"));

    // Same name, different data: half the keys, different values.
    auto ks2 = co_await fx->client().CreateKeyspace("gen");
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
  EXPECT_GT(Counter(f, "device.read_cache.hits"), 0u);
}

// The bloom filter is persisted with the metadata snapshot at compaction
// commit: after a power cut + Recover on a fresh Device, a missing key is
// still answered by the filter (bloom.negative fires on the new device)
// and present keys still read back.
TEST(ReadPathTest, BloomFilterSurvivesPowerCycle) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "bf", kKeys));
  ASSERT_FALSE(f.dev().keyspaces().Find("bf").value()->pidx_bloom.empty());

  injector.Crash();
  f.PowerCycle();
  const std::uint64_t neg_before = Counter(f, "device.bloom.negative");
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await fx->dev().Recover());
    auto ks = co_await fx->client().OpenKeyspace("bf");
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
  EXPECT_GT(Counter(f, "device.bloom.negative"), neg_before);
}

// Injected read errors on the PIDX zone: a get whose index block is
// cached never touches that zone and succeeds; a get needing an uncached
// block surfaces the IoError — and the failed read is NOT inserted, so
// the next (healthy) attempt re-reads flash and succeeds.
TEST(ReadPathTest, InjectedReadErrorCachedVsUncached) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  // ~600 16-byte keys span several 4 KB PIDX blocks.
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "flt", kKeys));

  Keyspace* ks_meta = f.dev().keyspaces().Find("flt").value();
  ASSERT_GE(ks_meta->pidx_sketch.size(), 2u);
  const std::uint64_t zone_size = f.dev().ssd().zone_size();
  const std::string key_a = MakeFixedKey(0);  // lives in sketch block 0
  // A key in the LAST block, so its block is distinct from block 0.
  const std::string key_b = MakeFixedKey(kKeys - 1);
  const std::uint64_t block_b_zone =
      ks_meta->pidx_sketch.back().block_addr / zone_size;

  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx,
                               sim::FaultInjector* faults, std::string ka,
                               std::string kb,
                               std::uint64_t bad_zone) -> sim::Task<void> {
    auto ks = co_await fx->client().OpenKeyspace("flt");
    KVCSD_CO_ASSERT_OK(ks);
    // Warm key A's index block only.
    KVCSD_CO_ASSERT_OK(co_await ks->Get(ka));

    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kRead;
    rule.zone = static_cast<std::int64_t>(bad_zone);
    rule.times = 1;
    faults->AddErrorRule(rule);

    // Cached block + value on a different (sorted-values) zone: the get
    // never reads the poisoned zone, the rule stays armed.
    const std::uint64_t hits = Counter(*fx, "device.read_cache.hits");
    KVCSD_CO_ASSERT_OK(co_await ks->Get(ka));
    KVCSD_CO_ASSERT(Counter(*fx, "device.read_cache.hits") > hits);

    // Uncached block in the poisoned zone: the read fails...
    auto broken = co_await ks->Get(kb);
    KVCSD_CO_ASSERT(broken.status().code() == StatusCode::kIoError);

    // ...and was not cached: the retry misses again (rule now exhausted)
    // and succeeds from a clean flash read.
    const std::uint64_t misses = Counter(*fx, "device.read_cache.misses");
    auto retried = co_await ks->Get(kb);
    KVCSD_CO_ASSERT_OK(retried);
    KVCSD_CO_ASSERT(Counter(*fx, "device.read_cache.misses") > misses);
  }(&f, &injector, key_a, key_b, block_b_zone));
}

// A cache sized below the index working set evicts in LRU order and
// never exceeds its byte budget.
TEST(ReadPathTest, TinyCacheEvictsWithinBudget) {
  DeviceConfig cfg = SmallDevice();
  cfg.index_cache_bytes = 2 * kIndexBlockSize;  // two blocks
  harness::CsdTestbed f(testutil::Bed(cfg));
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "tiny", 1200));
  ASSERT_GE(f.dev().keyspaces().Find("tiny").value()->pidx_sketch.size(), 4u);
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->client().OpenKeyspace("tiny");
    KVCSD_CO_ASSERT_OK(ks);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 1200);
  }(&f));
  const IndexBlockCache& cache = f.dev().index_cache();
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.charge(), cache.capacity());
  // Two full 4 KB blocks fill the budget; a partial tail block can ride
  // along only after an eviction made room.
  EXPECT_LE(cache.entries(), 3u);

  // Disabled cache: zero capacity, every read is uncached, no fills.
  DeviceConfig off = SmallDevice();
  off.index_cache_enabled = false;
  harness::CsdTestbed g(testutil::Bed(off));
  testutil::RunSim(g.sim(), LoadAndCompact(&g.client(), "off", 300));
  testutil::RunSim(g.sim(), [](harness::CsdTestbed* gx) -> sim::Task<void> {
    auto ks = co_await gx->client().OpenKeyspace("off");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(5)));
    KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(5)));
  }(&g));
  EXPECT_EQ(g.dev().index_cache().entries(), 0u);
  EXPECT_EQ(Counter(g, "device.read_cache.hits"), 0u);
}

// GatherValues dedupes identical (addr, len) refs into one flash read
// and fans results back out to every requesting slot, in request order.
TEST(ReadPathTest, GatherValuesDedupesIdenticalRefs) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "gv", 400));
  Keyspace* ks = f.dev().keyspaces().Find("gv").value();
  ASSERT_FALSE(ks->pidx_sketch.empty());
  // Any readable flash bytes do: the PIDX block itself gives known
  // (addr, len) extents.
  const std::uint64_t base = ks->pidx_sketch[0].block_addr;

  const std::uint64_t dups_before = Counter(f, "device.gather.dup_refs");
  const std::uint64_t ranges_before = Counter(f, "device.gather.ranges");
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx,
                               std::uint64_t addr) -> sim::Task<void> {
    using Ref = DeviceTestPeer::ValueRef;
    std::vector<Ref> refs = {Ref{addr, 64}, Ref{addr + 128, 64},
                             Ref{addr, 64}, Ref{addr, 64}};
    auto got = co_await DeviceTestPeer::Gather(&fx->dev(), refs);
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(got->size() == 4);
    KVCSD_CO_ASSERT((*got)[0] == (*got)[2]);
    KVCSD_CO_ASSERT((*got)[0] == (*got)[3]);

    // Reference: the same extents read one at a time.
    std::vector<Ref> first_only = {Ref{addr, 64}};
    std::vector<Ref> second_only = {Ref{addr + 128, 64}};
    auto one = co_await DeviceTestPeer::Gather(&fx->dev(), first_only);
    auto two = co_await DeviceTestPeer::Gather(&fx->dev(), second_only);
    KVCSD_CO_ASSERT_OK(one);
    KVCSD_CO_ASSERT_OK(two);
    KVCSD_CO_ASSERT((*got)[0] == (*one)[0]);
    KVCSD_CO_ASSERT((*got)[1] == (*two)[0]);
  }(&f, base));
  // Two duplicate refs deduped; the 64-byte gap coalesces the two
  // distinct extents of the first gather into a single range read, and
  // the two single-ref reference gathers add one range each.
  EXPECT_EQ(Counter(f, "device.gather.dup_refs"), dups_before + 2);
  EXPECT_EQ(Counter(f, "device.gather.ranges"), ranges_before + 3);
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
// across cache and gather-fanout configurations.
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
  configs[0] = SmallDevice();  // defaults: cache + bloom + fanout 8
  configs[1] = SmallDevice();
  configs[1].gather_fanout = 1;
  configs[2] = SmallDevice();
  configs[2].index_cache_enabled = false;
  configs[2].bloom_bits_per_key = 0;

  for (int c = 0; c < 3; ++c) {
    harness::CsdTestbed f(testutil::Bed(configs[c]));
    testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx,
                                 decltype(value_for)* mk) -> sim::Task<void> {
      auto ks = co_await fx->client().CreateKeyspace("tied");
      KVCSD_CO_ASSERT_OK(ks);
      auto writer = ks->NewBulkWriter();
      for (std::uint64_t i = 0; i < 400; ++i) {
        KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), (*mk)(i)));
      }
      KVCSD_CO_ASSERT_OK(co_await writer.Drain());
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
    testutil::RunSim(f.sim(), TiedQuery(&f.client(), 40, &rows));
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
    testutil::RunSim(f.sim(), TiedQuery(&f.client(), 0, &rows));
    EXPECT_EQ(rows.size(), 150u) << "config " << c;
  }
}

// A value whose f32 tag sits at offset 28, like the VPIC particle payload.
std::string TaggedValue(float tag) {
  std::string v(28, 'p');
  char buf[4];
  std::memcpy(buf, &tag, 4);
  v.append(buf, 4);
  return v;
}

// One range scan through the client; *rows receives the row count.
sim::Task<void> CountScan(client::Client* db, bool secondary,
                          std::uint32_t limit, std::size_t* rows) {
  auto ks = co_await db->OpenKeyspace("ahead");
  KVCSD_CO_ASSERT_OK(ks);
  std::vector<std::pair<std::string, std::string>> out;
  if (secondary) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->QuerySecondaryRangeF32("tag", 5.0f, 40.0f, limit, &out));
  } else {
    KVCSD_CO_ASSERT_OK(co_await ks->Scan(MakeFixedKey(100), MakeFixedKey(1899),
                                         limit, &out));
  }
  *rows = out.size();
}

// The range scans keep one index-block read ahead of the block being
// decoded, and never read ahead past `hi`: a scan cut by `limit` mid-range
// wastes the reads issued past its cut, one that runs to `hi` wastes none.
// perfbench reports these counters as prefetch.issued and
// prefetch.wasted_ratio, so the counts are pinned exactly.
TEST(ReadPathTest, ScanReadAheadCountsArePinned) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("ahead");
    KVCSD_CO_ASSERT_OK(ks);
    auto writer = ks->NewBulkWriter();
    for (std::uint64_t i = 0; i < 2000; ++i) {
      KVCSD_CO_ASSERT_OK(co_await writer.Add(
          MakeFixedKey(i), TaggedValue(static_cast<float>(i % 50))));
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Drain());
    nvme::SecondaryIndexSpec spec;
    spec.name = "tag";
    spec.value_offset = 28;
    spec.value_length = 4;
    spec.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs = {spec};
    KVCSD_CO_ASSERT_OK(co_await ks->CompactWithIndexes(specs));
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f.client()));

  struct Case {
    bool secondary;
    std::uint32_t limit;
    std::size_t rows;
    std::uint64_t issued;
    std::uint64_t wasted;
  };
  const Case cases[] = {
      {false, 300, 300, 3, 1},
      {true, 300, 300, 3, 1},
      {false, 0, 1800, 12, 0},
      {true, 0, 1440, 11, 0},
  };
  for (const Case& c : cases) {
    const std::uint64_t issued = Counter(f, "device.prefetch.issued");
    const std::uint64_t wasted = Counter(f, "device.prefetch.wasted");
    std::size_t rows = 0;
    testutil::RunSim(f.sim(),
                     CountScan(&f.client(), c.secondary, c.limit, &rows));
    SCOPED_TRACE(std::string(c.secondary ? "secondary" : "primary") +
                 " limit=" + std::to_string(c.limit));
    EXPECT_EQ(rows, c.rows);
    EXPECT_EQ(Counter(f, "device.prefetch.issued") - issued, c.issued);
    EXPECT_EQ(Counter(f, "device.prefetch.wasted") - wasted, c.wasted);
  }
}


// --- point lookups that read the value spans alongside the PIDX block ---

// The value of present key 2i in the span-read tests: sizes vary inside
// every block, and i in [600, 1200) carries 300 B values, so those blocks'
// spans take longer to transfer than one NAND read latency.
std::string MixedValue(std::uint64_t i) {
  const std::size_t len = (i >= 600 && i < 1200) ? 300 : 16 + (i * 7) % 25;
  std::string v = "v" + std::to_string(i) + "-";
  v.resize(len, static_cast<char>('a' + i % 26));
  return v;
}
constexpr std::uint64_t kMixedKeys = 1500;

DeviceConfig SpanDevice() {
  DeviceConfig c = SmallDevice();
  // Value appends smaller than some blocks' spans rotate through the
  // cluster's zones, so those blocks' values straddle two zones.
  c.output_batch_bytes = KiB(64);
  return c;
}

// Even keys are present, odd keys absent (inside the key range, so each
// reaches the bloom filter and, on a false positive, the PIDX block).
sim::Task<void> LoadMixed(client::Client* db) {
  auto ks = co_await db->CreateKeyspace("span");
  KVCSD_CO_ASSERT_OK(ks);
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < kMixedKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(2 * i), MixedValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Drain());
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

// GETs every present and absent key and checks each answer against
// `model`, and against a full scan, whose values come through the serial
// gather.
sim::Task<void> GetAllMatches(client::Client* db,
                              const std::map<std::string, std::string>* model) {
  auto ks = co_await db->OpenKeyspace("span");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t k = 0; k < 2 * kMixedKeys; ++k) {
    const std::string key = MakeFixedKey(k);
    auto got = co_await ks->Get(key);
    const auto it = model->find(key);
    if (it == model->end()) {
      KVCSD_CO_ASSERT(got.status().IsNotFound());
    } else {
      KVCSD_CO_ASSERT_OK(got);
      KVCSD_CO_ASSERT(*got == it->second);
    }
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  const std::vector<std::pair<std::string, std::string>> expected(
      model->begin(), model->end());
  KVCSD_CO_ASSERT(rows == expected);
}

struct SpanCensus {
  std::size_t eligible = 0;
  std::size_t too_large = 0;
  std::size_t cross_zone = 0;  // values in two zones
};

// Every value in the span tests is non-empty and every block's values in
// one zone sit less than a page apart, so each PIDX entry carries exactly
// one span per zone its values sit in, each inside its zone.
SpanCensus CountSpans(Device* dev, const Keyspace& ks) {
  const std::uint64_t zone_size = dev->ssd().zone_size();
  SpanCensus census;
  for (const SketchEntry& e : ks.pidx_sketch) {
    EXPECT_FALSE(e.spans.empty());
    std::set<std::uint64_t> zones;
    for (const wire::ValueSpan& span : e.spans) {
      EXPECT_LT(span.lo, span.hi);
      EXPECT_EQ(span.lo / zone_size, (span.hi - 1) / zone_size);
      zones.insert(span.lo / zone_size);
    }
    EXPECT_EQ(zones.size(), e.spans.size());
    if (DeviceTestPeer::SpanReadEligible(dev, ks.id, e)) {
      ++census.eligible;
    } else {
      ++census.too_large;
    }
    if (e.spans.size() > 1) ++census.cross_zone;
  }
  return census;
}

// With the index cache on and off, every GET answers exactly what the
// serial path answers: over mixed value sizes (spans too large to read
// alongside the block), blocks whose values straddle two zones (one span
// per zone, read together), bloom false positives, after a fold (retained
// blocks keep their spans, rebuilt ones carry one for the run values they
// keep and one for the fold's) and after a power cycle (spans come back
// from the sketch blob).
TEST(ReadPathTest, SpanReadGetsMatchSerialPath) {
  for (bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "index cache on" : "index cache off");
    DeviceConfig cfg = SpanDevice();
    cfg.index_cache_enabled = cache;
    sim::FaultInjector injector(7);
    harness::CsdTestbed f(testutil::Bed(cfg, &injector));
    testutil::RunSim(f.sim(), LoadMixed(&f.client()));
    std::map<std::string, std::string> model;
    for (std::uint64_t i = 0; i < kMixedKeys; ++i) {
      model[MakeFixedKey(2 * i)] = MixedValue(i);
    }

    Keyspace* ks = f.dev().keyspaces().Find("span").value();
    DeviceTestPeer::ClearIndexCache(&f.dev());
    const SpanCensus census = CountSpans(&f.dev(), *ks);
    EXPECT_GT(census.eligible, 0u);
    EXPECT_GT(census.too_large, 0u);
    EXPECT_GT(census.cross_zone, 0u);

    const std::uint64_t speculated =
        Counter(f, "device.query.value_speculated");
    const std::uint64_t wasted = Counter(f, "device.query.speculation_wasted");
    const std::uint64_t false_pos = Counter(f, "device.bloom.false_positive");
    testutil::RunSim(f.sim(), GetAllMatches(&f.client(), &model));
    const std::uint64_t spec_gets =
        Counter(f, "device.query.value_speculated") - speculated;
    const std::uint64_t fp =
        Counter(f, "device.bloom.false_positive") - false_pos;
    EXPECT_GT(spec_gets, 0u);
    EXPECT_GT(fp, 0u);
    // Only an absent key wastes a span read here; with no cache every
    // eligible lookup reads its span.
    EXPECT_LE(Counter(f, "device.query.speculation_wasted") - wasted, fp);
    if (!cache) {
      EXPECT_GT(spec_gets, kMixedKeys / 2);
    }

    // Fold: overwrite every 40th key and delete every 97th, all in the
    // first fifth of the key range, so later blocks are retained.
    const std::vector<SketchEntry> before = ks->pidx_sketch;
    testutil::RunSim(f.sim(), [](client::Client* db,
                                 std::map<std::string, std::string>* m)
                                -> sim::Task<void> {
      auto h = co_await db->OpenKeyspace("span");
      KVCSD_CO_ASSERT_OK(h);
      for (std::uint64_t i = 0; i < kMixedKeys / 5; i += 40) {
        const std::string key = MakeFixedKey(2 * i);
        (*m)[key] = MixedValue(i) + "*";
        KVCSD_CO_ASSERT_OK(co_await h->Put(key, (*m)[key]));
      }
      for (std::uint64_t i = 5; i < kMixedKeys / 5; i += 97) {
        m->erase(MakeFixedKey(2 * i));
        KVCSD_CO_ASSERT_OK(co_await h->Delete(MakeFixedKey(2 * i)));
      }
      KVCSD_CO_ASSERT_OK(co_await h->Compact());
      KVCSD_CO_ASSERT_OK(co_await h->WaitCompaction());
    }(&f.client(), &model));
    ks = f.dev().keyspaces().Find("span").value();
    std::map<std::uint64_t, const SketchEntry*> old_blocks;
    for (const SketchEntry& e : before) old_blocks[e.block_addr] = &e;
    std::size_t retained = 0;
    std::size_t rebuilt = 0;
    for (const SketchEntry& e : ks->pidx_sketch) {
      const auto it = old_blocks.find(e.block_addr);
      if (it == old_blocks.end()) {
        ++rebuilt;
        continue;
      }
      ++retained;
      EXPECT_EQ(e.spans, it->second->spans);
    }
    EXPECT_GT(retained, 0u);
    EXPECT_GT(rebuilt, 0u);
    // Every rebuilt block holds an overwritten key, so its values sit in
    // the run and in the fold's fresh cluster, and all are small.
    DeviceTestPeer::ClearIndexCache(&f.dev());
    for (const SketchEntry& e : ks->pidx_sketch) {
      if (old_blocks.contains(e.block_addr)) continue;
      EXPECT_GE(e.spans.size(), 2u);
      EXPECT_TRUE(DeviceTestPeer::SpanReadEligible(&f.dev(), ks->id, e));
    }
    CountSpans(&f.dev(), *ks);
    testutil::RunSim(f.sim(), GetAllMatches(&f.client(), &model));

    // Power cycle: the spans come back from the sketch blob.
    const std::vector<SketchEntry> folded = ks->pidx_sketch;
    f.PowerCycle();
    testutil::RunSim(f.sim(), [](Device* dev) -> sim::Task<void> {
      KVCSD_CO_ASSERT_OK(co_await dev->Recover());
    }(&f.dev()));
    ks = f.dev().keyspaces().Find("span").value();
    ASSERT_EQ(ks->pidx_sketch.size(), folded.size());
    for (std::size_t i = 0; i < folded.size(); ++i) {
      EXPECT_EQ(ks->pidx_sketch[i].spans, folded[i].spans);
    }
    const std::uint64_t speculated_before_gets =
        Counter(f, "device.query.value_speculated");
    testutil::RunSim(f.sim(), GetAllMatches(&f.client(), &model));
    EXPECT_GT(Counter(f, "device.query.value_speculated"),
              speculated_before_gets);
  }
}

// Times one device-side lookup of `key` into *ticks.
sim::Task<void> TimedLookup(sim::Simulation* sim, Device* dev, Keyspace* ks,
                            std::string key, Tick* ticks) {
  const Tick start = sim->Now();
  auto got = co_await DeviceTestPeer::QueryPoint(dev, ks, std::move(key));
  KVCSD_CO_ASSERT_OK(got);
  *ticks = sim->Now() - start;
}

sim::Task<void> TimedBlockRead(sim::Simulation* sim, Device* dev,
                               std::uint64_t keyspace_id,
                               const SketchEntry* entry, Tick* ticks) {
  const Tick start = sim->Now();
  KVCSD_CO_ASSERT_OK(
      co_await DeviceTestPeer::ReadIndexBlock(dev, keyspace_id, *entry));
  *ticks = sim->Now() - start;
}

// A cold lookup overlaps its two flash reads: its device time is at least
// one NAND read latency minus one page transfer below the serial path's,
// which is the warm lookup (block cached) plus the block read's miss cost.
TEST(ReadPathTest, ColdGetOverlapsBlockAndValueReads) {
  harness::CsdTestbed f(testutil::Bed(SpanDevice()));
  testutil::RunSim(f.sim(), LoadMixed(&f.client()));
  Keyspace* ks = f.dev().keyspaces().Find("span").value();
  DeviceTestPeer::ClearIndexCache(&f.dev());
  std::size_t pos = 0;
  while (pos < ks->pidx_sketch.size() &&
         !DeviceTestPeer::SpanReadEligible(&f.dev(), ks->id,
                                           ks->pidx_sketch[pos])) {
    ++pos;
  }
  ASSERT_LT(pos, ks->pidx_sketch.size());
  const SketchEntry& entry = ks->pidx_sketch[pos];
  const std::string key = entry.pivot;

  const std::uint64_t speculated = Counter(f, "device.query.value_speculated");
  Tick cold = 0;
  Tick warm = 0;
  testutil::RunSim(f.sim(), TimedLookup(&f.sim(), &f.dev(), ks, key, &cold));
  EXPECT_EQ(Counter(f, "device.query.value_speculated"), speculated + 1);
  testutil::RunSim(f.sim(), TimedLookup(&f.sim(), &f.dev(), ks, key, &warm));
  EXPECT_EQ(Counter(f, "device.query.value_speculated"), speculated + 1);

  Tick block_miss = 0;
  Tick block_hit = 0;
  DeviceTestPeer::ClearIndexCache(&f.dev());
  testutil::RunSim(f.sim(), TimedBlockRead(&f.sim(), &f.dev(), ks->id,
                                           &entry, &block_miss));
  testutil::RunSim(f.sim(), TimedBlockRead(&f.sim(), &f.dev(), ks->id,
                                           &entry, &block_hit));
  const Tick serial = warm + (block_miss - block_hit);

  const storage::NandConfig& nand = f.dev().ssd().nand().config();
  const Tick page_transfer =
      TransferTicks(nand.page_size, nand.channel_bytes_per_sec);
  EXPECT_LE(cold + nand.read_latency - page_transfer, serial)
      << "cold " << cold << " warm " << warm << " serial " << serial;
}

// Device time of one cold lookup of `key` (index cache emptied first),
// which must answer `expected` from the spans read alongside its block.
Tick ColdSpanLookup(harness::CsdTestbed& f, Keyspace* ks, std::string key,
                    std::string expected) {
  DeviceTestPeer::ClearIndexCache(&f.dev());
  const std::uint64_t speculated = Counter(f, "device.query.value_speculated");
  const std::uint64_t wasted = Counter(f, "device.query.speculation_wasted");
  Tick ticks = 0;
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx, Keyspace* k,
                               std::string key_, std::string want,
                               Tick* out) -> sim::Task<void> {
    const Tick start = fx->sim().Now();
    auto got = co_await DeviceTestPeer::QueryPoint(&fx->dev(), k, key_);
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == want);
    *out = fx->sim().Now() - start;
  }(&f, ks, std::move(key), std::move(expected), &ticks));
  EXPECT_EQ(Counter(f, "device.query.value_speculated"), speculated + 1);
  EXPECT_EQ(Counter(f, "device.query.speculation_wasted"), wasted);
  return ticks;
}

void ExpectWithinOnePageTransfer(harness::CsdTestbed& f, Tick got,
                                 Tick reference) {
  const storage::NandConfig& nand = f.dev().ssd().nand().config();
  const Tick page_transfer =
      TransferTicks(nand.page_size, nand.channel_bytes_per_sec);
  EXPECT_LE(got, reference + page_transfer) << "reference " << reference;
  EXPECT_LE(reference, got + page_transfer) << "got " << got;
}

// The first eligible PIDX block after block 0 with `spans` spans, other
// than the last; the sketch's size when there is none.
std::size_t EligibleBlockWithSpans(Device* dev, const Keyspace& ks,
                                   std::size_t spans) {
  DeviceTestPeer::ClearIndexCache(dev);
  for (std::size_t p = 1; p + 1 < ks.pidx_sketch.size(); ++p) {
    if (ks.pidx_sketch[p].spans.size() == spans &&
        DeviceTestPeer::SpanReadEligible(dev, ks.id, ks.pidx_sketch[p])) {
      return p;
    }
  }
  return ks.pidx_sketch.size();
}

// Overwrites the span keyspace's second key (in its first block) with
// "folded-value" and folds, so the fold rebuilds block 0.
sim::Task<void> OverwriteFirstBlockAndFold(client::Client* db) {
  auto h = co_await db->OpenKeyspace("span");
  KVCSD_CO_ASSERT_OK(h);
  KVCSD_CO_ASSERT_OK(co_await h->Put(MakeFixedKey(2), "folded-value"));
  KVCSD_CO_ASSERT_OK(co_await h->Compact());
  KVCSD_CO_ASSERT_OK(co_await h->WaitCompaction());
}

// A cold GET on a block the fold rebuilt reads the block's run span and
// fold span alongside the block: it pays one NAND read latency for a fold
// value and a surviving run value alike, within one page transfer of a
// cold GET on a block the compaction built.
TEST(ReadPathTest, ColdGetOnRebuiltBlockPaysOneReadLatency) {
  harness::CsdTestbed f(testutil::Bed(SpanDevice()));
  testutil::RunSim(f.sim(), LoadMixed(&f.client()));
  Keyspace* ks = f.dev().keyspaces().Find("span").value();
  const std::uint64_t old_block = ks->pidx_sketch[0].block_addr;
  testutil::RunSim(f.sim(), OverwriteFirstBlockAndFold(&f.client()));
  ks = f.dev().keyspaces().Find("span").value();
  ASSERT_NE(ks->pidx_sketch[0].block_addr, old_block);
  ASSERT_GE(ks->pidx_sketch[0].spans.size(), 2u);
  const std::size_t one = EligibleBlockWithSpans(&f.dev(), *ks, 1);
  ASSERT_LT(one, ks->pidx_sketch.size());
  const SketchEntry& built = ks->pidx_sketch[one];
  std::uint64_t i = 0;
  while (i < kMixedKeys && MakeFixedKey(2 * i) != built.pivot) ++i;

  const Tick built_value = ColdSpanLookup(f, ks, built.pivot, MixedValue(i));
  ExpectWithinOnePageTransfer(
      f, ColdSpanLookup(f, ks, MakeFixedKey(2), "folded-value"), built_value);
  ExpectWithinOnePageTransfer(
      f, ColdSpanLookup(f, ks, MakeFixedKey(0), MixedValue(0)), built_value);
}

// With value appends smaller than a block's values, compaction-built
// blocks straddle two zones. Such a block carries a span per zone, and a
// cold GET reads both alongside the block and slices its value out of
// either, within one page transfer of a GET on a one-zone block.
TEST(ReadPathTest, ColdGetOnZoneStraddlingBlockReadsBothSpans) {
  DeviceConfig cfg = SmallDevice();
  cfg.output_batch_bytes = KiB(4);
  harness::CsdTestbed f(testutil::Bed(cfg));
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "straddle", 4000));
  Keyspace* ks = f.dev().keyspaces().Find("straddle").value();
  const std::size_t one = EligibleBlockWithSpans(&f.dev(), *ks, 1);
  const std::size_t two = EligibleBlockWithSpans(&f.dev(), *ks, 2);
  ASSERT_LT(one, ks->pidx_sketch.size());
  ASSERT_LT(two, ks->pidx_sketch.size());
  auto first_key = [ks](std::size_t p) {
    std::uint64_t i = 0;
    while (i < 4000 && MakeFixedKey(i) != ks->pidx_sketch[p].pivot) ++i;
    return i;
  };
  auto cold = [&f, ks](std::uint64_t i) {
    return ColdSpanLookup(f, ks, MakeFixedKey(i), DetValue(i));
  };
  const Tick single = cold(first_key(one));
  // The straddling block's first and last keys, whose values sit in its
  // two zones.
  ExpectWithinOnePageTransfer(f, cold(first_key(two)), single);
  ExpectWithinOnePageTransfer(f, cold(first_key(two + 1) - 1), single);
}

// An injected error on the SORTED_VALUES zone that fails only the span
// read leaves the GET to the serial gather, which answers it; an error
// that also fails the gather fails the GET as the serial path would.
TEST(ReadPathTest, FailedSpanReadFallsBackToSerialGather) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(testutil::Bed(SpanDevice(), &injector));
  testutil::RunSim(f.sim(), LoadMixed(&f.client()));
  Keyspace* ks = f.dev().keyspaces().Find("span").value();
  const std::uint64_t zone_size = f.dev().ssd().zone_size();

  for (std::uint64_t times : {std::uint64_t{1}, std::uint64_t{2}}) {
    SCOPED_TRACE("rule fires " + std::to_string(times) + " time(s)");
    // The first key of an eligible block, so the span read goes out.
    std::size_t pos = 0;
    DeviceTestPeer::ClearIndexCache(&f.dev());
    while (!DeviceTestPeer::SpanReadEligible(&f.dev(), ks->id,
                                             ks->pidx_sketch[pos])) {
      ++pos;
    }
    pos += times;  // a different, still cold block per case
    ASSERT_TRUE(DeviceTestPeer::SpanReadEligible(&f.dev(), ks->id,
                                                 ks->pidx_sketch[pos]));
    const SketchEntry& entry = ks->pidx_sketch[pos];
    const std::string key = entry.pivot;
    std::uint64_t i = 0;
    while (MakeFixedKey(2 * i) != key) ++i;

    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kRead;
    rule.zone = static_cast<std::int64_t>(entry.spans[0].lo / zone_size);
    rule.times = times;
    injector.AddErrorRule(rule);

    const std::uint64_t wasted = Counter(f, "device.query.speculation_wasted");
    Result<std::string> got = Status::Aborted("not run");
    testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx, std::string k,
                                 Result<std::string>* out) -> sim::Task<void> {
      auto h = co_await fx->client().OpenKeyspace("span");
      KVCSD_CO_ASSERT_OK(h);
      *out = co_await h->Get(k);
    }(&f, key, &got));
    EXPECT_EQ(Counter(f, "device.query.speculation_wasted"), wasted + 1);
    if (times == 1) {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, MixedValue(i));
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kIoError);
    }
  }

  // A block the fold rebuilt has its values in two zones: an error on the
  // second span's zone alone fails that span read only, and the serial
  // gather answers the GET.
  SCOPED_TRACE("second span's zone");
  testutil::RunSim(f.sim(), OverwriteFirstBlockAndFold(&f.client()));
  ks = f.dev().keyspaces().Find("span").value();
  DeviceTestPeer::ClearIndexCache(&f.dev());
  const SketchEntry& entry = ks->pidx_sketch[0];
  ASSERT_EQ(entry.spans.size(), 2u);
  ASSERT_TRUE(DeviceTestPeer::SpanReadEligible(&f.dev(), ks->id, entry));
  const std::string key = entry.pivot;
  ASSERT_EQ(key, MakeFixedKey(0));
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kRead;
  rule.zone = static_cast<std::int64_t>(entry.spans[1].lo / zone_size);
  injector.AddErrorRule(rule);
  const std::uint64_t errors = injector.errors_injected();
  const std::uint64_t wasted = Counter(f, "device.query.speculation_wasted");
  Result<std::string> got = Status::Aborted("not run");
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx, std::string k,
                               Result<std::string>* out) -> sim::Task<void> {
    auto h = co_await fx->client().OpenKeyspace("span");
    KVCSD_CO_ASSERT_OK(h);
    *out = co_await h->Get(k);
  }(&f, key, &got));
  EXPECT_EQ(injector.errors_injected(), errors + 1);
  EXPECT_EQ(Counter(f, "device.query.speculation_wasted"), wasted + 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, MixedValue(0));
}

// Reads `entry`'s index block twice at once into *a and *b.
sim::Task<void> ReadBlockTwice(sim::Simulation* sim, Device* dev,
                               std::uint64_t keyspace_id,
                               const SketchEntry* entry,
                               Result<std::string>* a,
                               Result<std::string>* b) {
  auto read = [](Device* d, std::uint64_t id, const SketchEntry* e,
                 Result<std::string>* out) -> sim::Task<Status> {
    *out = co_await DeviceTestPeer::ReadIndexBlock(d, id, *e);
    co_return Status::Ok();
  };
  sim::TaskGroup both(sim);
  both.Spawn(read(dev, keyspace_id, entry, a));
  both.Spawn(read(dev, keyspace_id, entry, b));
  KVCSD_CO_ASSERT_OK(co_await both.Wait());
}

// Two concurrent misses on one index block make one flash read: the
// second waits for the first's read and gets the same bytes. When that
// shared read fails, the waiter reads for itself, so one injected error
// fails one of the two.
TEST(ReadPathTest, ConcurrentMissesShareOneBlockRead) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(testutil::Bed(SmallDevice(), &injector));
  testutil::RunSim(f.sim(), LoadAndCompact(&f.client(), "flight", 2000));
  Keyspace* ks = f.dev().keyspaces().Find("flight").value();
  ASSERT_GT(ks->pidx_sketch.size(), 1u);
  const SketchEntry& entry = ks->pidx_sketch[1];

  auto read_twice = [&f, ks, &entry](Result<std::string>* a,
                                     Result<std::string>* b) {
    DeviceTestPeer::ClearIndexCache(&f.dev());
    testutil::RunSim(f.sim(), ReadBlockTwice(&f.sim(), &f.dev(), ks->id,
                                             &entry, a, b));
  };

  const std::uint64_t bytes = f.dev().ssd().nand().bytes_read();
  const std::uint64_t joins = Counter(f, "device.read_cache.inflight_joins");
  Result<std::string> a = Status::Aborted("not run");
  Result<std::string> b = Status::Aborted("not run");
  read_twice(&a, &b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), entry.block_len);
  EXPECT_EQ(f.dev().ssd().nand().bytes_read() - bytes, entry.block_len);
  EXPECT_EQ(Counter(f, "device.read_cache.inflight_joins"), joins + 1);

  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kRead;
  rule.zone = static_cast<std::int64_t>(entry.block_addr /
                                        f.dev().ssd().zone_size());
  injector.AddErrorRule(rule);
  Result<std::string> c = Status::Aborted("not run");
  Result<std::string> d = Status::Aborted("not run");
  read_twice(&c, &d);
  EXPECT_EQ(injector.errors_injected(), 1u);
  EXPECT_EQ(Counter(f, "device.read_cache.inflight_joins"), joins + 2);
  ASSERT_NE(c.ok(), d.ok());
  const Result<std::string>& failed = c.ok() ? d : c;
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(c.ok() ? *c : *d, *a);
}

// Times one gather of `refs` into *ticks, then checks its bytes against
// one gather per ref.
sim::Task<void> TimedGather(harness::CsdTestbed* f,
                            std::vector<DeviceTestPeer::ValueRef> refs,
                            Tick* ticks) {
  const Tick start = f->sim().Now();
  auto got = co_await DeviceTestPeer::Gather(&f->dev(), refs);
  KVCSD_CO_ASSERT_OK(got);
  *ticks = f->sim().Now() - start;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    std::vector<DeviceTestPeer::ValueRef> one_ref(1, refs[i]);
    auto one = co_await DeviceTestPeer::Gather(&f->dev(), std::move(one_ref));
    KVCSD_CO_ASSERT_OK(one);
    KVCSD_CO_ASSERT((*one)[0] == (*got)[i]);
  }
}

sim::Task<void> TimedAddressOrderReads(
    harness::CsdTestbed* f, std::vector<DeviceTestPeer::ValueRef> refs,
    Tick* ticks) {
  const Tick start = f->sim().Now();
  KVCSD_CO_ASSERT_OK(
      co_await DeviceTestPeer::AddressOrderReads(&f->dev(), std::move(refs)));
  *ticks = f->sim().Now() - start;
}

// The gather sends its range reads round-robin over their NAND channels:
// refs spread over a 4-zone SORTED_VALUES cluster come back faster than
// the same reads sent in address order, which puts every read in flight
// on the lowest zone's channel, and with the same bytes.
TEST(ReadPathTest, GatherSpreadsReadsAcrossChannels) {
  harness::CsdTestbed f(testutil::Bed(SpanDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("wide");
    KVCSD_CO_ASSERT_OK(ks);
    auto writer = ks->NewBulkWriter();
    for (std::uint64_t i = 0; i < 800; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await writer.Add(MakeFixedKey(i), std::string(KiB(1), 'w')));
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Drain());
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(&f.client()));
  Keyspace* ks = f.dev().keyspaces().Find("wide").value();
  ASSERT_EQ(ks->sorted_value_clusters.size(), 1u);
  std::vector<std::uint32_t> zones =
      f.dev().zones().cluster_zones(ks->sorted_value_clusters[0]);
  ASSERT_EQ(zones.size(), 4u);
  std::sort(zones.begin(), zones.end());

  // 10 two-page refs per zone, 16 KiB apart so none coalesce.
  using Ref = DeviceTestPeer::ValueRef;
  std::vector<Ref> refs;
  const std::uint64_t zone_size = f.dev().ssd().zone_size();
  std::set<std::uint32_t> channels;
  for (std::uint32_t zone : zones) {
    channels.insert(f.dev().ssd().ChannelOf(zone));
    ASSERT_GE(f.dev().ssd().write_pointer(zone), 10 * KiB(16));
    for (std::uint64_t k = 0; k < 10; ++k) {
      refs.push_back(Ref{zone * zone_size + k * KiB(16),
                         static_cast<std::uint32_t>(KiB(8))});
    }
  }
  ASSERT_EQ(channels.size(), 4u);

  Tick spread = 0;
  Tick address_order = 0;
  const std::uint64_t ranges = Counter(f, "device.gather.ranges");
  testutil::RunSim(f.sim(), TimedGather(&f, refs, &spread));
  EXPECT_EQ(Counter(f, "device.gather.ranges"), ranges + 2 * refs.size());
  testutil::RunSim(f.sim(), TimedAddressOrderReads(&f, refs, &address_order));
  EXPECT_LT(spread, address_order)
      << "spread " << spread << " address order " << address_order;
}

}  // namespace
}  // namespace kvcsd::device
