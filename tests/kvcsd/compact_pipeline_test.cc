// End-to-end tests for the multi-core compaction pipeline: results must
// be bit-identical regardless of `soc_cores` (run layout, merge order and
// tie-breaks are all core-count independent), and more cores must not
// make compaction slower — parallel run generation should make it
// strictly faster. The append window (gather_fanout) must never move an
// output byte, and phase 2's stages must overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "device_test_peer.h"
#include "harness/json_report.h"
#include "harness/workloads.h"
#include "kvcsd/device.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice(std::uint32_t cores) {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  c.soc_cores = cores;
  return c;
}

// Everything observable about a compacted keyspace that must not depend
// on the core count: entry count, both pivot sketches, and query results.
struct Outcome {
  bool ok = false;
  Tick compact_ticks = 0;
  std::uint64_t num_kvs = 0;
  std::vector<std::string> pidx_pivots;
  std::vector<std::string> sidx_pivots;
  std::vector<std::pair<std::string, std::string>> scan;
  std::vector<std::pair<std::string, std::string>> sidx_rows;
  std::vector<std::string> gets;
};

std::string EnergyValue(std::uint64_t id) {
  std::string v(28, 'p');
  const float energy = static_cast<float>(id % 97);
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

nvme::SecondaryIndexSpec EnergySpec() {
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  return energy;
}

// Bulk-loads `keys` keys in a shuffled order so run generation sees
// unsorted zones. Values longer than EnergyValue's 32 bytes are padded.
sim::Task<void> LoadShuffled(client::KeyspaceHandle* ks, std::uint64_t keys,
                             std::size_t value_bytes = 32) {
  std::uint64_t stride = 701;
  while (keys % stride == 0) ++stride;
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t id = (i * stride) % keys;
    std::string value = EnergyValue(id);
    value.resize(std::max(value.size(), value_bytes), 'q');
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), value));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Drain());
}

sim::Task<void> Workload(client::Client* db, Device* dev,
                         sim::Simulation* sim, std::uint64_t keys,
                         Outcome* out) {
  auto created = co_await db->CreateKeyspace("pipeline");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);

  co_await LoadShuffled(&ks, keys);

  const Tick start = sim->Now();
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(EnergySpec());
  KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  out->compact_ticks = sim->Now() - start;

  auto stat = co_await ks.GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  out->num_kvs = stat->num_kvs;

  // Device-internal index layout.
  auto found = dev->keyspaces().Find("pipeline");
  KVCSD_CO_ASSERT_OK(found);
  for (const SketchEntry& e : (*found)->pidx_sketch) {
    out->pidx_pivots.push_back(e.pivot);
  }
  auto sidx = (*found)->secondary_indexes.find("energy");
  KVCSD_CO_ASSERT(sidx != (*found)->secondary_indexes.end());
  for (const SketchEntry& e : sidx->second.sketch) {
    out->sidx_pivots.push_back(e.pivot);
  }

  // Query-visible results.
  KVCSD_CO_ASSERT_OK(co_await ks.Scan(MakeFixedKey(keys / 4),
                                MakeFixedKey(keys / 4 + 100), 0, &out->scan));
  for (std::uint64_t probe = 0; probe < 16; ++probe) {
    auto v = co_await ks.Get(MakeFixedKey((probe * keys) / 16));
    KVCSD_CO_ASSERT_OK(v);
    out->gets.push_back(std::move(*v));
  }
  KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 10.0f, 14.0f, 0,
                                                  &out->sidx_rows));
  out->ok = true;
}

Outcome RunWorkload(std::uint32_t cores, std::uint64_t keys) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice(cores)));
  Outcome out;
  testutil::RunSim(f.sim(),
                   Workload(&f.client(), &f.dev(), &f.sim(), keys, &out));
  EXPECT_TRUE(out.ok) << "workload aborted at " << cores << " cores";
  return out;
}

constexpr std::uint64_t kKeys = 6000;

// Every core count bench_ablate_compact_cores sweeps must reproduce the
// 1-core contents its fingerprint covers.
TEST(CompactPipelineTest, ResultsIdenticalAcrossCoreCounts) {
  Outcome one = RunWorkload(1, kKeys);
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(one.num_kvs, kKeys);
  EXPECT_GT(one.pidx_pivots.size(), 1u);
  EXPECT_GT(one.sidx_pivots.size(), 0u);
  EXPECT_EQ(one.scan.size(), 101u);
  EXPECT_GT(one.sidx_rows.size(), 0u);
  for (const std::uint32_t cores : {2u, 4u, 8u}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    Outcome many = RunWorkload(cores, kKeys);
    ASSERT_TRUE(many.ok);
    EXPECT_EQ(many.num_kvs, one.num_kvs);
    // Index layout: same blocks split at the same pivots, in both the
    // primary and the fused secondary index.
    EXPECT_EQ(many.pidx_pivots, one.pidx_pivots);
    EXPECT_EQ(many.sidx_pivots, one.sidx_pivots);
    // Query results: scans, point gets, secondary range.
    EXPECT_EQ(many.scan, one.scan);
    EXPECT_EQ(many.gets, one.gets);
    EXPECT_EQ(many.sidx_rows, one.sidx_rows);
  }
}

TEST(CompactPipelineTest, MoreCoresCompactStrictlyFaster) {
  Outcome one = RunWorkload(1, kKeys);
  Outcome four = RunWorkload(4, kKeys);
  ASSERT_TRUE(one.ok && four.ok);
  // Phase-1 run generation fans out across cores; with a serial device
  // everything in the pipeline degrades to sequential execution.
  EXPECT_LT(four.compact_ticks, one.compact_ticks);
}

// Where a compaction put its outputs: both sketches with their block
// addresses, and the SORTED_VALUES chain's bytes.
struct Layout {
  bool ok = false;
  Tick compact_ticks = 0;
  std::vector<std::pair<std::string, std::uint64_t>> pidx;
  std::vector<std::pair<std::string, std::uint64_t>> sidx;
  std::string sorted_values;
};

std::vector<std::pair<std::string, std::uint64_t>> Blocks(
    const std::vector<SketchEntry>& sketch) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const SketchEntry& e : sketch) out.emplace_back(e.pivot, e.block_addr);
  return out;
}

// Reads back every byte written to the clusters of `chain`, in order.
sim::Task<void> ReadChain(Device* dev, const std::vector<ClusterId>& chain,
                          std::string* out) {
  for (ClusterId id : chain) {
    for (std::uint32_t zone : dev->zones().cluster_zones(id)) {
      std::string bytes(dev->ssd().write_pointer(zone), '\0');
      KVCSD_CO_ASSERT_OK(co_await dev->ssd().Read(
          static_cast<std::uint64_t>(zone) * dev->ssd().zone_size(),
          std::span<std::byte>(reinterpret_cast<std::byte*>(bytes.data()),
                               bytes.size())));
      out->append(bytes);
    }
  }
}

// Records the layout of the compacted keyspace "layout" (`sidx` stays
// empty when it has no energy index).
sim::Task<void> RecordLayout(Device* dev, Layout* out) {
  auto found = dev->keyspaces().Find("layout");
  KVCSD_CO_ASSERT_OK(found);
  const Keyspace& layout = **found;
  out->pidx = Blocks(layout.pidx_sketch);
  auto sidx = layout.secondary_indexes.find("energy");
  if (sidx != layout.secondary_indexes.end()) {
    out->sidx = Blocks(sidx->second.sketch);
  }
  co_await ReadChain(dev, layout.sorted_value_clusters, &out->sorted_values);
  out->ok = true;
}

// Compacts a shuffled load with the energy index built fused into the
// compaction or by a separate scan afterwards, and records the layout.
sim::Task<void> LayoutWorkload(client::Client* db, Device* dev,
                               sim::Simulation* sim, std::uint64_t keys,
                               bool fused, Layout* out) {
  auto created = co_await db->CreateKeyspace("layout");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);
  co_await LoadShuffled(&ks, keys);
  const Tick start = sim->Now();
  if (fused) {
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(EnergySpec());
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  } else {
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndex(EnergySpec()));
  }
  out->compact_ticks = sim->Now() - start;
  co_await RecordLayout(dev, out);
  KVCSD_CO_ASSERT(!out->sidx.empty());
}

// Small output batches and DRAM make every output chain take many appends
// and the values span several phase-2 batches. The sort-run budget is
// pinned, so `dram_bytes` moves only the phase-2 value-batch budget.
DeviceConfig WindowDevice(std::uint32_t gather_fanout,
                          std::uint64_t dram_bytes = KiB(512)) {
  DeviceConfig c = SmallDevice(4);
  c.output_batch_bytes = KiB(16);
  c.gather_fanout = gather_fanout;
  c.dram_bytes = dram_bytes;
  c.sort_run_bytes = KiB(128);
  return c;
}

constexpr std::uint64_t kWindowKeys = 12000;

Layout RunLayout(std::uint32_t gather_fanout, bool fused,
                 std::uint64_t dram_bytes = KiB(512)) {
  harness::CsdTestbed f(testutil::Bed(WindowDevice(gather_fanout, dram_bytes)));
  Layout out;
  testutil::RunSim(f.sim(), LayoutWorkload(&f.client(), &f.dev(), &f.sim(),
                                           kWindowKeys, fused, &out));
  EXPECT_TRUE(out.ok) << "workload aborted at gather_fanout "
                      << gather_fanout;
  return out;
}

// The append window and the value-batch budget change when compaction
// output is written, never where: with one append in flight, with the
// default window, and with 200 KiB instead of 64 KiB value batches, every
// PIDX and SIDX block sits at the same address under the same pivot and
// the SORTED_VALUES chain holds the same bytes, for the SIDX built fused
// into the compaction and by a separate scan.
TEST(CompactPipelineTest, AppendWindowKeepsTheLayout) {
  const std::uint32_t window = DeviceConfig{}.gather_fanout;
  ASSERT_GT(window, 1u);
  for (const bool fused : {true, false}) {
    SCOPED_TRACE(fused ? "fused index" : "separate index");
    const Layout serial = RunLayout(1, fused);
    const Layout windowed = RunLayout(window, fused);
    const Layout big_batches = RunLayout(window, fused, MiB(8));
    ASSERT_TRUE(serial.ok && windowed.ok && big_batches.ok);
    EXPECT_GT(serial.pidx.size(), 16u);
    EXPECT_GT(serial.sidx.size(), 16u);
    EXPECT_EQ(serial.sorted_values.size(), kWindowKeys * 32);
    EXPECT_EQ(windowed.pidx, serial.pidx);
    EXPECT_EQ(windowed.sidx, serial.sidx);
    EXPECT_EQ(windowed.sorted_values, serial.sorted_values);
    EXPECT_LT(windowed.compact_ticks, serial.compact_ticks);
    EXPECT_EQ(big_batches.pidx, serial.pidx);
    EXPECT_EQ(big_batches.sidx, serial.sidx);
    EXPECT_EQ(big_batches.sorted_values, serial.sorted_values);
  }
}

// A compaction of the window workload, with the energy index fused into
// it or none, that, when `rule` is set, first fails on the error it
// injects, and then compacts cleanly.
struct FailedCompaction {
  Status failure;  // what WaitCompaction returned for the failed attempt
  KeyspaceState state_after_failure = KeyspaceState::kCompacted;
  std::size_t free_zones_before = 0;
  std::size_t free_zones_after_failure = 0;
  std::uint64_t batches_written_before_failure = 0;
  // The compaction that succeeded: its layout, and the zones of its
  // SORTED_VALUES and PIDX chains with the zone each chain's first append
  // went to.
  Layout layout;
  std::uint64_t batches = 0;
  std::vector<std::uint32_t> value_zones;
  std::uint32_t first_value_zone = 0;
  std::vector<std::uint32_t> pidx_zones;
  std::uint32_t first_pidx_zone = 0;
};

sim::Task<Status> CompactWindow(client::KeyspaceHandle* ks, bool fused) {
  std::vector<nvme::SecondaryIndexSpec> specs;
  if (fused) specs.push_back(EnergySpec());
  const Status started = co_await ks->CompactWithIndexes(std::move(specs));
  if (!started.ok()) co_return started;
  co_return co_await ks->WaitCompaction();
}

std::uint64_t HistogramCount(sim::Simulation& sim, const char* name) {
  return sim.stats().histogram(name).count();
}

sim::Task<void> FailThenCompact(harness::CsdTestbed* f,
                                sim::FaultInjector* injector, bool fused,
                                std::optional<sim::ErrorRule> rule,
                                FailedCompaction* out) {
  Device& dev = f->dev();
  auto created = co_await f->client().CreateKeyspace("layout");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);
  co_await LoadShuffled(&ks, kWindowKeys);
  auto found = dev.keyspaces().Find("layout");
  KVCSD_CO_ASSERT_OK(found);
  if (rule.has_value()) {
    out->free_zones_before = dev.zones().free_zones();
    injector->AddErrorRule(*rule);
    out->failure = co_await CompactWindow(&ks, fused);
    out->state_after_failure = (*found)->state;
    out->free_zones_after_failure = dev.zones().free_zones();
    out->batches_written_before_failure =
        HistogramCount(f->sim(), "device.compact.phase2_write_ns");
  }
  const std::uint64_t batches_before =
      HistogramCount(f->sim(), "device.compact.phase2_write_ns");
  KVCSD_CO_ASSERT_OK(co_await CompactWindow(&ks, fused));
  out->batches =
      HistogramCount(f->sim(), "device.compact.phase2_write_ns") -
      batches_before;
  co_await RecordLayout(&dev, &out->layout);
  const Keyspace& layout = **found;
  KVCSD_CO_ASSERT(layout.sorted_value_clusters.size() == 1);
  KVCSD_CO_ASSERT(layout.pidx_clusters.size() == 1);
  const std::uint64_t zone_size = dev.ssd().zone_size();
  out->value_zones = dev.zones().cluster_zones(layout.sorted_value_clusters[0]);
  out->first_value_zone = static_cast<std::uint32_t>(
      layout.pidx_sketch.at(0).spans.at(0).lo / zone_size);
  out->pidx_zones = dev.zones().cluster_zones(layout.pidx_clusters[0]);
  out->first_pidx_zone =
      static_cast<std::uint32_t>(layout.pidx_sketch.at(0).block_addr / zone_size);
}

FailedCompaction RunFailThenCompact(bool fused,
                                    std::optional<sim::ErrorRule> rule) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(
      testutil::Bed(WindowDevice(DeviceConfig{}.gather_fanout), &injector));
  FailedCompaction out;
  testutil::RunSim(f.sim(),
                   FailThenCompact(&f, &injector, fused, rule, &out));
  EXPECT_EQ(injector.errors_injected(), rule.has_value() ? 1u : 0u);
  return out;
}

// Fails the `nth` append (0-based) of a one-cluster chain on `zones` whose
// first append went to `first`: a cluster's appends rotate over its zones,
// and none of these fills.
sim::ErrorRule NthAppendRule(const std::vector<std::uint32_t>& zones,
                             std::uint32_t first, std::uint64_t nth) {
  const auto start = static_cast<std::uint64_t>(
      std::find(zones.begin(), zones.end(), first) - zones.begin());
  EXPECT_LT(start, zones.size());
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.zone = zones[(start + nth) % zones.size()];
  rule.skip = nth / zones.size();
  return rule;
}

// A failed append in the middle of a multi-batch compaction: WaitCompaction
// returns the error (every stage, and every index waiter on an append
// group that never lands, wakes), the keyspace rolls back to WRITABLE with
// every zone it took back in the pool, and the retry lays the keyspace
// out exactly as a compaction that never failed.
void ExpectAppendFailureRollsBack(bool fused, const FailedCompaction& clean,
                                  const sim::ErrorRule& rule,
                                  std::uint64_t min_batches_written) {
  const FailedCompaction failed = RunFailThenCompact(fused, rule);
  EXPECT_EQ(failed.failure.code(), StatusCode::kIoError)
      << failed.failure.ToString();
  EXPECT_EQ(failed.state_after_failure, KeyspaceState::kWritable);
  EXPECT_EQ(failed.free_zones_after_failure, failed.free_zones_before);
  EXPECT_GE(failed.batches_written_before_failure, min_batches_written);
  EXPECT_LT(failed.batches_written_before_failure, clean.batches);
  ASSERT_TRUE(failed.layout.ok);
  // The retry's clusters may sit in other zones: blocks are compared at
  // their offsets within their zones.
  const std::uint64_t zone_size = WindowDevice(1).zns.zone_size;
  auto in_zone = [zone_size](std::vector<std::pair<std::string, std::uint64_t>>
                                 blocks) {
    for (auto& block : blocks) block.second %= zone_size;
    return blocks;
  };
  EXPECT_EQ(in_zone(failed.layout.pidx), in_zone(clean.layout.pidx));
  EXPECT_EQ(in_zone(failed.layout.sidx), in_zone(clean.layout.sidx));
  EXPECT_EQ(failed.layout.sorted_values, clean.layout.sorted_values);
}

// With no fused index the index stage keeps up with the write, so it is
// asleep on the failed group when the write ends.
TEST(CompactPipelineTest, MidBatchValueAppendErrorRollsBack) {
  const FailedCompaction clean = RunFailThenCompact(false, std::nullopt);
  ASSERT_TRUE(clean.layout.ok);
  // 64 KiB batches of four 16 KiB appends: append 6 is the third of batch
  // 1, so batch 0 is written and batch 1 fails halfway.
  ASSERT_GE(clean.batches, 3u);
  ASSERT_EQ(clean.layout.sorted_values.size(), kWindowKeys * 32);
  ExpectAppendFailureRollsBack(
      false, clean,
      NthAppendRule(clean.value_zones, clean.first_value_zone, 6), 1);
}

TEST(CompactPipelineTest, PidxAppendErrorRollsBack) {
  const FailedCompaction clean = RunFailThenCompact(true, std::nullopt);
  ASSERT_TRUE(clean.layout.ok);
  ASSERT_FALSE(clean.layout.sidx.empty());
  ASSERT_GE(clean.layout.pidx.size(), 24u);
  // Four blocks per append: append 5 carries blocks 20-23, indexed from a
  // later batch than the first.
  ExpectAppendFailureRollsBack(
      true, clean, NthAppendRule(clean.pidx_zones, clean.first_pidx_zone, 5),
      1);
}

// A keyspace whose equal-key groups span runs: every key is put, then
// overwritten or deleted in two later passes, each pass in its own
// shuffled order, so the versions of a key sit in different runs. The
// partitioned key merge may cut between keys only, never inside a group.
struct GroupedLayout {
  Layout layout;
  std::uint64_t num_kvs = 0;
  std::string bloom;
  std::uint64_t partitions = 0;
};

constexpr std::uint64_t kGroupedKeys = 3000;

// Pass 0 puts every key; pass 1 overwrites the even keys and deletes
// keys = 1 mod 5; pass 2 puts keys = 0 mod 3 (resurrecting some deleted
// ones) and deletes keys = 2 mod 7. Returns the value a key ends with,
// or nullopt when its last version is a tombstone.
std::optional<std::string> GroupedFinalValue(std::uint64_t id) {
  std::optional<std::string> value = EnergyValue(id * 3);
  if (id % 2 == 0) value = EnergyValue(id * 3 + 1);
  if (id % 5 == 1) value.reset();
  if (id % 3 == 0) value = EnergyValue(id * 3 + 2);
  if (id % 7 == 2) value.reset();
  return value;
}

sim::Task<void> GroupedWorkload(client::Client* db, Device* dev,
                                GroupedLayout* out) {
  auto created = co_await db->CreateKeyspace("grouped");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    constexpr std::uint64_t kStrides[] = {701, 977, 1201};  // prime
    const std::uint64_t stride = kStrides[pass];
    auto writer = ks.NewBulkWriter();
    std::vector<std::uint64_t> deletes;
    for (std::uint64_t i = 0; i < kGroupedKeys; ++i) {
      const std::uint64_t id = (i * stride) % kGroupedKeys;
      const bool put = pass == 0 || (pass == 1 && id % 2 == 0) ||
                       (pass == 2 && id % 3 == 0);
      const bool del = (pass == 1 && id % 5 == 1) || (pass == 2 && id % 7 == 2);
      if (put) {
        KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id),
                                               EnergyValue(id * 3 + pass)));
      }
      if (del) deletes.push_back(id);
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Drain());
    for (std::uint64_t id : deletes) {
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(id)));
    }
  }
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(EnergySpec());
  KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

  for (std::uint64_t id = 0; id < kGroupedKeys; id += 11) {
    auto got = co_await ks.Get(MakeFixedKey(id));
    const std::optional<std::string> want = GroupedFinalValue(id);
    if (want.has_value()) {
      KVCSD_CO_ASSERT_OK(got);
      EXPECT_EQ(*got, *want) << "key " << id;
    } else {
      EXPECT_TRUE(got.status().IsNotFound()) << "key " << id;
    }
  }
  auto found = dev->keyspaces().Find("grouped");
  KVCSD_CO_ASSERT_OK(found);
  const Keyspace& layout = **found;
  out->num_kvs = layout.NumKvs();
  out->bloom = layout.pidx_bloom;
  out->layout.pidx = Blocks(layout.pidx_sketch);
  auto sidx = layout.secondary_indexes.find("energy");
  KVCSD_CO_ASSERT(sidx != layout.secondary_indexes.end());
  out->layout.sidx = Blocks(sidx->second.sketch);
  co_await ReadChain(dev, layout.sorted_value_clusters,
                     &out->layout.sorted_values);
  out->layout.ok = true;
}

GroupedLayout RunGrouped(std::uint32_t cores) {
  DeviceConfig config = WindowDevice(DeviceConfig{}.gather_fanout);
  config.soc_cores = cores;
  config.sort_run_bytes = KiB(64);
  harness::CsdTestbed f(testutil::Bed(config));
  GroupedLayout out;
  testutil::RunSim(f.sim(), GroupedWorkload(&f.client(), &f.dev(), &out));
  EXPECT_TRUE(out.layout.ok) << "workload aborted at " << cores << " cores";
  out.partitions =
      f.sim().stats().counter_value("device.compact.merge_partitions");
  return out;
}

// Each core count cuts the key merge at different splitters, and every
// splitter falls among keys whose versions sit in several runs. The
// compacted keyspace must not notice: the same SORTED_VALUES bytes, PIDX
// and SIDX blocks at the same addresses, the same bloom filter and the
// same live-key count as the model's.
TEST(CompactPipelineTest, PartitionBoundariesNeverSplitAKeysVersions) {
  std::uint64_t live = 0;
  for (std::uint64_t id = 0; id < kGroupedKeys; ++id) {
    if (GroupedFinalValue(id).has_value()) ++live;
  }
  const GroupedLayout one = RunGrouped(1);
  ASSERT_TRUE(one.layout.ok);
  EXPECT_EQ(one.num_kvs, live);
  EXPECT_EQ(one.layout.sorted_values.size(), live * 32);
  EXPECT_GT(one.layout.pidx.size(), 4u);
  EXPECT_FALSE(one.bloom.empty());
  EXPECT_GT(one.partitions, 1u);
  std::uint64_t fewer = one.partitions;
  for (const std::uint32_t cores : {2u, 4u, 8u}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    const GroupedLayout many = RunGrouped(cores);
    ASSERT_TRUE(many.layout.ok);
    // More cores, smaller partitions: the splitters move.
    EXPECT_GT(many.partitions, fewer);
    fewer = many.partitions;
    EXPECT_EQ(many.num_kvs, one.num_kvs);
    EXPECT_EQ(many.bloom, one.bloom);
    EXPECT_EQ(many.layout.pidx, one.layout.pidx);
    EXPECT_EQ(many.layout.sidx, one.layout.sidx);
    EXPECT_EQ(many.layout.sorted_values, one.layout.sorted_values);
  }
}

// A grouped compaction under 8 MiB of SoC DRAM, read back in full: every
// PIDX entry with the value it points at, and the TEMP zone and run
// counters.
struct GroupedKeyRuns {
  GroupedLayout grouped;
  std::vector<std::string> pivots;
  // key, value length, value bytes
  std::vector<std::tuple<std::string, std::uint32_t, std::string>> pidx;
  std::uint64_t runs_spilled = 0;
  std::uint64_t max_merge_fanin = 0;
  std::uint64_t partitions = 0;
  std::uint64_t temp_appended = 0;
  std::uint64_t temp_read = 0;
  std::uint64_t temp_resets = 0;
};

sim::Task<void> ReadPidxEntries(Device* dev, GroupedKeyRuns* out) {
  auto found = dev->keyspaces().Find("grouped");
  KVCSD_CO_ASSERT_OK(found);
  const Keyspace& ks = **found;
  for (const SketchEntry& entry : ks.pidx_sketch) {
    out->pivots.push_back(entry.pivot);
    auto block = co_await DeviceTestPeer::ReadIndexBlock(dev, ks.id, entry);
    KVCSD_CO_ASSERT_OK(block);
    std::vector<wire::PidxEntry> entries;
    KVCSD_CO_ASSERT_OK(wire::ForEachIndexEntry<wire::PidxEntry>(
        *block, [&entries](const wire::PidxEntry& e) {
          entries.push_back(e);
          return true;
        }));
    for (const wire::PidxEntry& e : entries) {
      std::string value(e.vlen, '\0');
      KVCSD_CO_ASSERT_OK(co_await dev->ssd().Read(
          e.vaddr, std::span<std::byte>(
                       reinterpret_cast<std::byte*>(value.data()), e.vlen)));
      out->pidx.emplace_back(e.key.ToString(), e.vlen, std::move(value));
    }
  }
}

GroupedKeyRuns RunGroupedKeyRuns(std::uint64_t sort_run_bytes) {
  DeviceConfig config = WindowDevice(DeviceConfig{}.gather_fanout, MiB(8));
  config.sort_run_bytes = sort_run_bytes;
  harness::CsdTestbed f(testutil::Bed(config));
  GroupedKeyRuns out;
  testutil::RunSim(f.sim(),
                   GroupedWorkload(&f.client(), &f.dev(), &out.grouped));
  EXPECT_TRUE(out.grouped.layout.ok);
  testutil::RunSim(f.sim(), ReadPidxEntries(&f.dev(), &out));
  const sim::Stats& stats = f.sim().stats();
  out.runs_spilled = f.dev().compaction_stats().runs_spilled;
  out.max_merge_fanin = f.dev().compaction_stats().max_merge_fanin;
  out.partitions = stats.counter_value("device.compact.merge_partitions");
  out.temp_appended = stats.counter_value("zns.temp.append_bytes");
  out.temp_read = stats.counter_value("zns.temp.read_bytes");
  out.temp_resets = stats.counter_value("zns.temp.resets");
  return out;
}

// A key log that fits half the key share keeps its sorted runs in SoC
// DRAM; a sort budget of a few KiB spills many runs to TEMP. The key
// runs of the two differ, but the merged stream does not: the same PIDX
// entries (their addresses differ only because the resident compaction
// allocates no TEMP zone, so its outputs land elsewhere) and pivots, the
// same SORTED_VALUES bytes in key order, the same bloom filter and GET
// answers (checked against the model inside the workload). Every TEMP
// zone a compaction allocates is reset with its release, so no TEMP reset
// means no TEMP cluster.
TEST(CompactPipelineTest, ResidentKeyRunsMatchSpilledKeyRuns) {
  const GroupedKeyRuns resident = RunGroupedKeyRuns(0);
  const GroupedKeyRuns spilled = RunGroupedKeyRuns(KiB(8));
  ASSERT_TRUE(resident.grouped.layout.ok && spilled.grouped.layout.ok);

  EXPECT_EQ(resident.runs_spilled, 0u);
  EXPECT_GT(resident.max_merge_fanin, 1u);
  EXPECT_GT(resident.partitions, 1u);
  EXPECT_EQ(resident.temp_appended, 0u);
  EXPECT_EQ(resident.temp_read, 0u);
  EXPECT_EQ(resident.temp_resets, 0u);
  EXPECT_GT(spilled.runs_spilled, 1u);
  EXPECT_GT(spilled.partitions, 1u);
  EXPECT_GT(spilled.temp_appended, 0u);
  EXPECT_GT(spilled.temp_read, 0u);

  EXPECT_EQ(resident.grouped.num_kvs, spilled.grouped.num_kvs);
  EXPECT_EQ(resident.pidx.size(), resident.grouped.num_kvs);
  EXPECT_GT(resident.pivots.size(), 4u);
  EXPECT_EQ(resident.pivots, spilled.pivots);
  EXPECT_TRUE(resident.pidx == spilled.pidx);
  // SORTED_VALUES read zone by zone follows each cluster's zones and
  // rotation; in key order (the values the PIDX entries point at, above)
  // it is the same stream.
  EXPECT_EQ(resident.grouped.layout.sorted_values.size(),
            spilled.grouped.layout.sorted_values.size());
  EXPECT_FALSE(resident.grouped.bloom.empty());
  EXPECT_EQ(resident.grouped.bloom, spilled.grouped.bloom);
  EXPECT_EQ(resident.grouped.layout.sidx.size(),
            spilled.grouped.layout.sidx.size());
}

// TEMP bytes and spilled runs of one compaction of 30,000 shuffled keys
// with `value_bytes`-byte values, on a device whose 16 MiB of SoC DRAM
// give a 4 MiB key share: the ~0.9 MB key log fits half of it.
struct KeyRunPlacement {
  bool ok = false;
  std::uint64_t runs_spilled = 0;
  std::uint64_t temp_appended = 0;
};

KeyRunPlacement CompactWithValues(std::uint32_t value_bytes) {
  DeviceConfig config = SmallDevice(4);
  config.dram_bytes = MiB(16);
  harness::CsdTestbed f(testutil::Bed(config));
  KeyRunPlacement out;
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* bed, std::uint32_t bytes,
                               KeyRunPlacement* o) -> sim::Task<void> {
    const std::function<std::string(std::uint64_t)> value_for =
        [bytes](std::uint64_t id) {
          return std::string(bytes, static_cast<char>('a' + id % 26));
        };
    auto ks = co_await harness::LoadKeyspace(
        bed->client(), "ks", harness::ShuffledIds(30000), value_for, {});
    EXPECT_TRUE(ks.ok()) << ks.status().ToString();
    o->ok = ks.ok();
  }(&f, value_bytes, &out));
  out.runs_spilled = f.dev().compaction_stats().runs_spilled;
  out.temp_appended = f.sim().stats().counter_value("zns.temp.append_bytes");
  return out;
}

// Resident key runs leave the value batches what the key log does not
// take of the key share. With 8 B values the VLOG fits one batch either
// way, so the runs stay in DRAM. With 100 B values (~3 MB of VLOG) the
// smaller batches would cut the VLOG into one batch more, and every batch
// re-reads most of the VLOG, so the same key log spills.
TEST(CompactPipelineTest, KeyRunsSpillWhenResidencyWouldAddAValueBatch) {
  const KeyRunPlacement small_values = CompactWithValues(8);
  ASSERT_TRUE(small_values.ok);
  EXPECT_EQ(small_values.runs_spilled, 0u);
  EXPECT_EQ(small_values.temp_appended, 0u);

  const KeyRunPlacement large_values = CompactWithValues(100);
  ASSERT_TRUE(large_values.ok);
  EXPECT_GT(large_values.runs_spilled, 0u);
  EXPECT_GT(large_values.temp_appended, 0u);
}

// One span of a phase-2 stage, read back from the trace.
struct StageSpan {
  double begin = 0;
  double end = 0;
};

// Phase-2 stage spans per stage name ("phase2.merge", ...) and batch.
std::map<std::string, std::map<std::uint64_t, StageSpan>> StageSpans(
    const sim::Tracer& tracer) {
  std::map<std::string, std::map<std::uint64_t, StageSpan>> spans;
  auto parsed = harness::ParseJson(tracer.ToJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return spans;
  const harness::JsonValue* events = parsed->Find("traceEvents");
  if (events == nullptr) return spans;
  for (const harness::JsonValue& event : events->elements()) {
    const harness::JsonValue* name = event.Find("name");
    const harness::JsonValue* args = event.Find("args");
    if (name == nullptr || args == nullptr ||
        name->string_value().rfind("phase2.", 0) != 0) {
      continue;
    }
    const harness::JsonValue* batch = args->Find("batch");
    if (batch == nullptr) continue;
    const double begin = event.Find("ts")->number_value();
    spans[std::string(name->string_value())]
         [std::stoull(std::string(batch->string_value()))] =
             StageSpan{begin, begin + event.Find("dur")->number_value()};
  }
  return spans;
}

constexpr const char* kStages[] = {"merge", "gather", "write", "index"};

// The phase-2 stage spans of a traced compaction on the window device
// with `gather_fanout` appends in flight. Every stage must record one
// span and one histogram sample per batch.
std::map<std::string, std::map<std::uint64_t, StageSpan>> TracedStages(
    std::uint32_t gather_fanout,
    const std::function<sim::Task<void>(harness::CsdTestbed*)>& workload) {
  harness::CsdTestbed f(testutil::Bed(WindowDevice(gather_fanout)));
  f.sim().tracer().Enable();
  testutil::RunSim(f.sim(), workload(&f));
  auto spans = StageSpans(f.sim().tracer());
  const std::size_t batches = spans["phase2.merge"].size();
  EXPECT_GE(batches, 3u);
  for (const char* stage : kStages) {
    EXPECT_EQ(spans[std::string("phase2.") + stage].size(), batches) << stage;
    EXPECT_EQ(HistogramCount(f.sim(), (std::string("device.compact.phase2_") +
                                       stage + "_ns")
                                          .c_str()),
              batches)
        << stage;
  }
  return spans;
}

// Phase 2 is a pipeline: on a keyspace spanning several value batches, the
// merge of batch N+1 runs while batch N is being gathered and written, and
// every stage records one span and one histogram sample per batch. A
// change that serializes the stages again (the merge awaiting the write)
// fails here.
TEST(CompactPipelineTest, MergeOfNextBatchOverlapsWriteOfPrevious) {
  auto spans = TracedStages(DeviceConfig{}.gather_fanout,
                            [](harness::CsdTestbed* f) -> sim::Task<void> {
    Outcome out;
    co_await Workload(&f->client(), &f->dev(), &f->sim(), kWindowKeys, &out);
    EXPECT_TRUE(out.ok);
  });
  const StageSpan& write0 = spans["phase2.write"].at(0);
  const StageSpan& merge1 = spans["phase2.merge"].at(1);
  EXPECT_LT(merge1.begin, write0.end);
  EXPECT_LT(write0.begin, merge1.end);
}

// The gather of batch N+1 runs while batch N is copied and appended, and
// the index stage follows a batch's appends as they land instead of
// waiting for its whole write: a change that gathers inside the write
// stage again, or joins a batch's appends before indexing it, fails here.
// 256-byte values make the value stages outweigh the key merge, with no
// fused index nothing holds the index stage up, and with two appends in
// flight a batch's four appends land in two waves, so its indexing
// (which starts when its first append lands) starts before its write
// ends.
TEST(CompactPipelineTest, GatherAndIndexOverlapTheWrite) {
  auto spans = TracedStages(2, [](harness::CsdTestbed* f) -> sim::Task<void> {
    auto created = co_await f->client().CreateKeyspace("pipeline");
    KVCSD_CO_ASSERT_OK(created);
    co_await LoadShuffled(&*created, 3000, 256);
    KVCSD_CO_ASSERT_OK(co_await created->Compact());
    KVCSD_CO_ASSERT_OK(co_await created->WaitCompaction());
  });
  const auto& gathers = spans["phase2.gather"];
  const auto& writes = spans["phase2.write"];
  const auto& indexes = spans["phase2.index"];
  for (const auto& [n, write] : writes) {
    SCOPED_TRACE("batch " + std::to_string(n));
    EXPECT_LT(indexes.at(n).begin, write.end);
    if (!gathers.contains(n + 1)) continue;
    EXPECT_LT(gathers.at(n + 1).begin, write.end);
    EXPECT_LT(write.begin, gathers.at(n + 1).end);
  }
}

}  // namespace
}  // namespace kvcsd::device
