// Shard-router semantics (DESIGN.md §15): single-shard degeneracy against
// the plain client, scatter-gather merges with empty shards, limit
// truncation exactly at shard boundaries, deterministic routing across a
// fleet-wide power cycle, per-shard stage histograms, a regression test
// for the batched-PUT admission-window deadlock, and per-pair outcomes of
// a batched PUT.
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
#include "harness/sharded_testbed.h"
#include "kvcsd/device.h"
#include "nvme/skey.h"
#include "router/partitioner.h"
#include "router/sharded_client.h"
#include "sim/parallel.h"

namespace kvcsd::router {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

device::DeviceConfig SmallDevice() {
  device::DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

harness::ShardedTestbedConfig Fleet(std::uint32_t shards) {
  harness::ShardedTestbedConfig c;
  c.shard.host_cores = 8;
  c.shard.device = SmallDevice();
  c.num_shards = shards;
  return c;
}

// value = 28 pad bytes + f32 energy (little-endian), the layout the
// "energy" secondary index and pushdown predicates read at offset 28.
std::string EnergyValue(float energy) {
  std::string v(28, 'p');
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

std::uint32_t Fingerprint(const Rows& rows) {
  std::uint32_t crc = 0;
  for (const auto& [key, value] : rows) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
  }
  return crc;
}

// --------------------------------------------------------------------------
// Single-shard degeneracy: a router over one device must be byte-identical
// to the plain client on that device — same scan stream, same secondary
// order, same pushdown matches, same aggregate scalars, same stat. Any
// divergence means the merge/fold layer is editorializing.
// --------------------------------------------------------------------------
TEST(RouterTest, SingleShardMatchesPlainClient) {
  harness::ShardedTestbed f(Fleet(1));
  constexpr std::uint64_t kKeys = 400;
  testutil::RunSim(f.sim(), [](harness::ShardedTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->router().CreateKeyspace("deg");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>((i * 37) % 101))));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy", 28));

    // The same keyspace through the plain (unsharded) client.
    auto plain = co_await fx->router().shard(0).OpenKeyspace("deg");
    KVCSD_CO_ASSERT_OK(plain);

    Rows routed, direct;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &routed));
    KVCSD_CO_ASSERT_OK(co_await plain->Scan("", "\x7f", 0, &direct));
    KVCSD_CO_ASSERT(routed.size() == kKeys);
    KVCSD_CO_ASSERT(Fingerprint(routed) == Fingerprint(direct));

    routed.clear();
    direct.clear();
    KVCSD_CO_ASSERT_OK(
        co_await ks->QuerySecondaryRangeF32("energy", 10.f, 60.f, 0, &routed));
    KVCSD_CO_ASSERT_OK(co_await plain->QuerySecondaryRangeF32(
        "energy", 10.f, 60.f, 0, &direct));
    KVCSD_CO_ASSERT(!routed.empty());
    KVCSD_CO_ASSERT(Fingerprint(routed) == Fingerprint(direct));

    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 50.f);
    routed.clear();
    direct.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->Select("", "\x7f", opts, &routed));
    KVCSD_CO_ASSERT_OK(co_await plain->Select("", "\x7f", opts, &direct));
    KVCSD_CO_ASSERT(!routed.empty());
    KVCSD_CO_ASSERT(Fingerprint(routed) == Fingerprint(direct));

    nvme::AggregateSpec sum;
    sum.func = nvme::AggregateFunc::kSum;
    sum.value_offset = 28;
    sum.value_length = 4;
    auto routed_agg = co_await ks->Aggregate("", "\x7f", sum);
    auto direct_agg = co_await plain->Aggregate("", "\x7f", sum);
    KVCSD_CO_ASSERT_OK(routed_agg);
    KVCSD_CO_ASSERT_OK(direct_agg);
    KVCSD_CO_ASSERT(routed_agg->rows == direct_agg->rows);
    KVCSD_CO_ASSERT(routed_agg->sum == direct_agg->sum);
    KVCSD_CO_ASSERT(routed_agg->min == direct_agg->min);
    KVCSD_CO_ASSERT(routed_agg->max == direct_agg->max);

    auto stat = co_await ks->GetStat();
    auto plain_stat = co_await plain->GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT_OK(plain_stat);
    KVCSD_CO_ASSERT(stat->num_kvs == plain_stat->num_kvs);
    KVCSD_CO_ASSERT(stat->state == plain_stat->state);
  }(&f));
}

// --------------------------------------------------------------------------
// Empty shard in scatter-gather merges: a RangePartitioner split can leave
// a shard with zero keys, and the k-way merge must treat its exhausted
// stream as a no-op — not an error, not a truncation — for primary scans,
// secondary scans, and limited variants of both.
// --------------------------------------------------------------------------
TEST(RouterTest, EmptyShardInMergedScans) {
  // Shard 0 owns [0, 100), shard 1 owns [100, 200), shard 2 the tail.
  // Keys only land in [0, 100) and [200, 300): shard 1 stays empty.
  harness::ShardedTestbed f(
      Fleet(3), std::make_unique<RangePartitioner>(std::vector<std::string>{
                    MakeFixedKey(100), MakeFixedKey(200)}));
  testutil::RunSim(f.sim(), [](harness::ShardedTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->router().CreateKeyspace("holes");
    KVCSD_CO_ASSERT_OK(ks);
    Rows model;
    for (std::uint64_t i = 0; i < 300; ++i) {
      if (i >= 100 && i < 200) continue;
      std::string value = EnergyValue(static_cast<float>(i));
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    // Nothing routed to the middle shard.
    KVCSD_CO_ASSERT(fx->router().ShardOf(MakeFixedKey(150)) == 1);
    auto mid_stat = co_await ks->shard_handle(1).GetStat();
    KVCSD_CO_ASSERT_OK(mid_stat);
    KVCSD_CO_ASSERT(mid_stat->num_kvs == 0);

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy", 28));

    Rows rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == model.size());
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));

    // Limited scan spanning the hole: rows 90..109 of the merged stream
    // are keys 90..99 then 200..209.
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->Scan(MakeFixedKey(90), "\x7f", 20, &rows));
    KVCSD_CO_ASSERT(rows.size() == 20);
    KVCSD_CO_ASSERT(rows[9].first == MakeFixedKey(99));
    KVCSD_CO_ASSERT(rows[10].first == MakeFixedKey(200));

    // Secondary merge over the same population (energy == key id, so the
    // secondary order equals the primary order here — the point is that
    // the empty shard's secondary stream merges cleanly, with a limit).
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->QuerySecondaryRangeF32(
        "energy", 0.f, 1000.f, 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->QuerySecondaryRangeF32(
        "energy", 95.f, 204.f, 8, &rows));
    KVCSD_CO_ASSERT(rows.size() == 8);
    KVCSD_CO_ASSERT(rows.front().first == MakeFixedKey(95));
    KVCSD_CO_ASSERT(rows.back().first == MakeFixedKey(202));
  }(&f));
}

// --------------------------------------------------------------------------
// Limit exactly at a shard boundary: with a range split at key 50 and a
// limit that exhausts shard 0's stream precisely, the merge must stop at
// the boundary (limit == 50), include exactly one row from the next shard
// (51), and stop one short (49). The secondary variant uses inverted
// energies so the secondary merge order crosses the shards in the
// opposite direction.
// --------------------------------------------------------------------------
TEST(RouterTest, LimitAtShardBoundary) {
  harness::ShardedTestbed f(Fleet(2),
                            std::make_unique<RangePartitioner>(
                                std::vector<std::string>{MakeFixedKey(50)}));
  constexpr std::uint64_t kKeys = 100;
  testutil::RunSim(f.sim(), [](harness::ShardedTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->router().CreateKeyspace("edge");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      // energy = kKeys-1-i: ascending energy order walks keys 99 -> 0,
      // i.e. shard 1 first, crossing into shard 0 after 50 rows.
      KVCSD_CO_ASSERT_OK(co_await ks->Put(
          MakeFixedKey(i), EnergyValue(static_cast<float>(kKeys - 1 - i))));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy", 28));

    // Primary order: shard 0 holds keys 0..49, shard 1 holds 50..99.
    for (std::uint32_t limit : {49u, 50u, 51u}) {
      Rows rows;
      KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", limit, &rows));
      KVCSD_CO_ASSERT(rows.size() == limit);
      for (std::uint32_t i = 0; i < limit; ++i) {
        KVCSD_CO_ASSERT(rows[i].first == MakeFixedKey(i));
      }
    }
    // Secondary order: shard 1's 50 rows (keys 99..50) come first.
    for (std::uint32_t limit : {49u, 50u, 51u}) {
      Rows rows;
      KVCSD_CO_ASSERT_OK(co_await ks->QuerySecondaryRangeF32(
          "energy", -1.f, 1000.f, limit, &rows));
      KVCSD_CO_ASSERT(rows.size() == limit);
      for (std::uint32_t i = 0; i < limit; ++i) {
        KVCSD_CO_ASSERT(rows[i].first == MakeFixedKey(kKeys - 1 - i));
      }
    }
  }(&f));
}

// --------------------------------------------------------------------------
// Deterministic routing across a power cycle: the partitioner is pure
// (key, N) -> shard, so a restarted fleet — new queue sets, recovered
// devices, fresh clients, a brand-new router — must find every key where
// the pre-crash router put it, with no placement table to consult.
// --------------------------------------------------------------------------
TEST(RouterTest, RoutingSurvivesFleetRestart) {
  harness::ShardedTestbed f(Fleet(3));
  constexpr std::uint64_t kKeys = 300;
  std::vector<std::uint32_t> placed(kKeys);
  testutil::RunSim(
      f.sim(), [](harness::ShardedTestbed* fx, std::vector<std::uint32_t>* out)
                 -> sim::Task<void> {
        auto ks = co_await fx->router().CreateKeyspace("cycle");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          (*out)[i] = fx->router().ShardOf(MakeFixedKey(i));
          KVCSD_CO_ASSERT_OK(
              co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
      }(&f, &placed));

  f.PowerCycle();
  testutil::RunSim(
      f.sim(), [](harness::ShardedTestbed* fx,
                  const std::vector<std::uint32_t>* expect) -> sim::Task<void> {
        for (std::uint32_t i = 0; i < fx->router().num_shards(); ++i) {
          KVCSD_CO_ASSERT_OK(co_await fx->dev(i).Recover());
        }
        auto ks = co_await fx->router().OpenKeyspace("cycle");
        KVCSD_CO_ASSERT_OK(ks);
        std::uint64_t total = 0;
        for (std::uint32_t shard = 0; shard < fx->router().num_shards();
             ++shard) {
          auto stat = co_await ks->shard_handle(shard).GetStat();
          KVCSD_CO_ASSERT_OK(stat);
          total += stat->num_kvs;
        }
        KVCSD_CO_ASSERT(total == kKeys);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          // The new router derives the same placement...
          KVCSD_CO_ASSERT(fx->router().ShardOf(MakeFixedKey(i)) ==
                          (*expect)[i]);
          // ...and the routed read finds the pre-crash value there.
          auto got = co_await ks->Get(MakeFixedKey(i));
          KVCSD_CO_ASSERT_OK(got);
          KVCSD_CO_ASSERT(*got == "v" + std::to_string(i));
        }
      }(&f, &placed));
}

// --------------------------------------------------------------------------
// Stage histograms carry the shard prefix: the submit/complete stages are
// recorded under the queue set's name_prefix and the queue wait under the
// device's stats_prefix, so each shard's series counts exactly its own
// commands and no unprefixed client.stage.* series merges the fleet.
// --------------------------------------------------------------------------
TEST(RouterTest, StageHistogramsArePerShard) {
  harness::ShardedTestbed f(Fleet(2));
  testutil::RunSim(f.sim(), [](harness::ShardedTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->router().CreateKeyspace("stages");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < 64; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), "s"));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    for (std::uint64_t i = 0; i < 64; i += 5) {
      KVCSD_CO_ASSERT_OK(co_await ks->Get(MakeFixedKey(i)));
    }
  }(&f));

  const auto& histograms = f.sim().stats().histograms();
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    const std::uint64_t submitted = f.queue(shard).submitted();
    EXPECT_GT(submitted, 0u);
    for (const char* stage : {"submit_ns", "queue_wait_ns", "complete_ns"}) {
      const std::string name =
          "shard" + std::to_string(shard) + ".client.stage." + stage;
      const auto it = histograms.find(name);
      ASSERT_NE(it, histograms.end()) << name;
      EXPECT_EQ(it->second.count(), submitted) << name;
    }
  }
  for (const auto& [name, histogram] : histograms) {
    EXPECT_NE(name.rfind("client.stage.", 0), 0u) << name;
  }
}

// --------------------------------------------------------------------------
// Regression: concurrent batched PUTs whose combined size exceeds one
// client's admission window (max_inflight). Before the batch gate, each
// batch submitter acquired window permits one at a time while
// submitting nothing, so several callers could carve the window up among
// themselves and all park waiting for permits only they were holding.
// Every batch lands on the same shard client to maximize contention.
// --------------------------------------------------------------------------
TEST(RouterTest, ConcurrentBatchesOverflowAdmissionWindow) {
  harness::ShardedTestbed f(Fleet(1));
  // A router over one client with a narrow window on the shard's queues.
  client::ClientConfig cc;
  cc.max_inflight = 8;  // 6 drivers x 32-pair batches >> 8 permits
  cc.stats_prefix = "client.shard0.";
  client::Client gated(&f.queue(0), &f.host_cpu(),
                       hostenv::CostModel::Host(), cc);
  ShardedClient router(&f.sim(), {&gated},
                       std::make_unique<HashPartitioner>());
  constexpr std::uint64_t kDrivers = 6;
  constexpr std::uint64_t kBatches = 4;
  constexpr std::uint64_t kBatchSize = 32;
  testutil::RunSim(f.sim(), [](ShardedClient* fx) -> sim::Task<void> {
    auto ks = co_await fx->CreateKeyspace("gate");
    KVCSD_CO_ASSERT_OK(ks);
    auto driver = [](ShardedKeyspaceHandle h,
                     std::uint64_t d) -> sim::Task<Status> {
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (std::uint64_t i = 0; i < kBatchSize; ++i) {
          const std::uint64_t id = (d * kBatches + b) * kBatchSize + i;
          pairs.emplace_back(MakeFixedKey(id), "g" + std::to_string(id));
        }
        auto futures = co_await h.PutBatchAsync(std::move(pairs));
        for (auto& future : futures) {
          Status s = co_await future.Await();
          if (!s.ok()) co_return s;
        }
      }
      co_return Status::Ok();
    };
    sim::TaskGroup group(fx->sim());
    for (std::uint64_t d = 0; d < kDrivers; ++d) {
      group.Spawn(driver(*ks, d));
    }
    KVCSD_CO_ASSERT_OK(co_await group.Wait());

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    auto stat = co_await ks->GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kDrivers * kBatches * kBatchSize);
  }(&router));
}

// --------------------------------------------------------------------------
// A batched PUT reports each pair's outcome through that pair's future:
// the scatter itself never fails. With the keyspace dropped on shard 1
// only, shard 0's pairs land and shard 1's fail, each in its own future.
// --------------------------------------------------------------------------
TEST(RouterTest, PutBatchAsyncReportsEachPairThroughItsFuture) {
  harness::ShardedTestbed f(Fleet(2),
                            std::make_unique<RangePartitioner>(
                                std::vector<std::string>{MakeFixedKey(50)}));
  testutil::RunSim(f.sim(), [](harness::ShardedTestbed* fx) -> sim::Task<void> {
    auto ks = co_await fx->router().CreateKeyspace("half");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await fx->client(1).DropKeyspace("half"));
    std::vector<std::pair<std::string, std::string>> pairs;
    for (std::uint64_t i = 40; i < 60; ++i) {
      pairs.emplace_back(MakeFixedKey(i), "v" + std::to_string(i));
    }
    auto futures = co_await ks->PutBatchAsync(std::move(pairs));
    KVCSD_CO_ASSERT(futures.size() == 20);
    for (std::uint64_t i = 0; i < futures.size(); ++i) {
      Status s = co_await futures[i].Await();
      KVCSD_CO_ASSERT(s.ok() == (40 + i < 50));
    }
    auto stat = co_await ks->shard_handle(0).GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == 10);
  }(&f));
}

}  // namespace
}  // namespace kvcsd::router
