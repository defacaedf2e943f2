// End-to-end tests for the multi-core compaction pipeline: results must
// be bit-identical regardless of `soc_cores` (run layout, merge order and
// tie-breaks are all core-count independent), and more cores must not
// make compaction slower — parallel run generation should make it
// strictly faster. The append window (gather_fanout) must never move an
// output byte, and phase 2's stages must overlap.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "harness/json_report.h"
#include "kvcsd/device.h"

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
// unsorted zones.
sim::Task<void> LoadShuffled(client::KeyspaceHandle* ks, std::uint64_t keys) {
  std::uint64_t stride = 701;
  while (keys % stride == 0) ++stride;
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t id = (i * stride) % keys;
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), EnergyValue(id)));
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
  auto found = dev->keyspaces().Find("layout");
  KVCSD_CO_ASSERT_OK(found);
  const Keyspace& layout = **found;
  out->pidx = Blocks(layout.pidx_sketch);
  auto sidx = layout.secondary_indexes.find("energy");
  KVCSD_CO_ASSERT(sidx != layout.secondary_indexes.end());
  out->sidx = Blocks(sidx->second.sketch);
  co_await ReadChain(dev, layout.sorted_value_clusters, &out->sorted_values);
  out->ok = true;
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

// Phase 2 is a pipeline: on a keyspace spanning several value batches, the
// merge of batch N+1 runs while batch N is being gathered and written, and
// every stage records one span and one histogram sample per batch. A
// change that serializes the stages again (the merge awaiting the write)
// fails here.
TEST(CompactPipelineTest, MergeOfNextBatchOverlapsWriteOfPrevious) {
  harness::CsdTestbed f(
      testutil::Bed(WindowDevice(DeviceConfig{}.gather_fanout)));
  f.sim().tracer().Enable();
  Outcome out;
  testutil::RunSim(f.sim(), Workload(&f.client(), &f.dev(), &f.sim(),
                                     kWindowKeys, &out));
  ASSERT_TRUE(out.ok);

  auto spans = StageSpans(f.sim().tracer());
  const auto& merges = spans["phase2.merge"];
  const auto& writes = spans["phase2.write"];
  const auto& indexes = spans["phase2.index"];
  ASSERT_GE(merges.size(), 2u);
  EXPECT_EQ(writes.size(), merges.size());
  EXPECT_EQ(indexes.size(), merges.size());
  const StageSpan& write0 = writes.at(0);
  const StageSpan& merge1 = merges.at(1);
  EXPECT_LT(merge1.begin, write0.end);
  EXPECT_LT(write0.begin, merge1.end);
  for (const char* stage : {"merge", "write", "index"}) {
    EXPECT_EQ(f.sim().stats()
                  .histogram(std::string("device.compact.phase2_") + stage +
                             "_ns")
                  .count(),
              merges.size())
        << stage;
  }
}

}  // namespace
}  // namespace kvcsd::device
