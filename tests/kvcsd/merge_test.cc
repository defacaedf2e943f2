// Tests for the compactor's k-way merge machinery (kvcsd/merge.h):
// LoserTree selection order (including ties and exhausted leaves), and
// RunMerger streaming spilled runs back from TEMP clusters across segment
// boundaries with double-buffered reads.
#include "kvcsd/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "common/keys.h"
#include "kvcsd/zone_manager.h"

namespace kvcsd::device {
namespace {

// ---------------------------------------------------------------------
// LoserTree unit tests: pure in-memory k-way merge over int runs. The
// comparator mirrors RunMerger::LeafLess — exhausted leaves sort last,
// ties break toward the lower leaf index.
// ---------------------------------------------------------------------

std::vector<std::pair<int, std::size_t>> DrainTree(
    const std::vector<std::vector<int>>& runs) {
  std::vector<std::size_t> cursor(runs.size(), 0);
  auto less = [&](std::size_t a, std::size_t b) {
    const bool va = cursor[a] < runs[a].size();
    const bool vb = cursor[b] < runs[b].size();
    if (!va || !vb) return va && !vb;
    const int x = runs[a][cursor[a]];
    const int y = runs[b][cursor[b]];
    if (x != y) return x < y;
    return a < b;
  };
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  LoserTree tree;
  tree.Build(runs.size(), less);
  std::vector<std::pair<int, std::size_t>> out;
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t w = tree.winner();
    EXPECT_LT(w, runs.size());
    EXPECT_LT(cursor[w], runs[w].size()) << "selected an exhausted leaf";
    out.emplace_back(runs[w][cursor[w]], w);
    ++cursor[w];
    tree.Replay(w, less);
  }
  return out;
}

TEST(LoserTreeTest, MergesDisjointRunsInGlobalOrder) {
  // Non-power-of-two k with an empty run in the middle.
  std::vector<std::vector<int>> runs = {
      {0, 5, 10, 15, 20}, {1, 6, 11, 16}, {}, {2, 7, 12}, {3, 4, 8, 9, 13, 14}};
  std::vector<int> all;
  for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  auto popped = DrainTree(runs);
  ASSERT_EQ(popped.size(), all.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].first, all[i]);
  }
}

TEST(LoserTreeTest, TiesBreakTowardLowerLeafIndex) {
  // Every run holds the same values; each pop of a given value must come
  // from the lowest-indexed run still holding it.
  std::vector<std::vector<int>> runs = {{1, 2, 2}, {1, 2}, {1, 1, 2}};
  auto popped = DrainTree(runs);
  ASSERT_EQ(popped.size(), 8u);
  std::vector<std::pair<int, std::size_t>> expected = {
      {1, 0}, {1, 1}, {1, 2}, {1, 2}, {2, 0}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(popped, expected);
}

TEST(LoserTreeTest, StressAgainstReferenceSort) {
  // Deterministic pseudo-random runs; merged output must equal sorting
  // the concatenation.
  std::uint64_t lcg = 12345;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((lcg >> 33) % 1000);
  };
  std::vector<std::vector<int>> runs(7);
  std::vector<int> all;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t n = (r * 37 + 11) % 50;
    for (std::size_t i = 0; i < n; ++i) runs[r].push_back(next());
    std::sort(runs[r].begin(), runs[r].end());
    all.insert(all.end(), runs[r].begin(), runs[r].end());
  }
  std::sort(all.begin(), all.end());
  auto popped = DrainTree(runs);
  ASSERT_EQ(popped.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(popped[i].first, all[i]);
  }
}

TEST(LoserTreeTest, DegenerateSizes) {
  LoserTree empty;
  empty.Build(0, [](std::size_t, std::size_t) { return false; });
  EXPECT_EQ(empty.winner(), LoserTree::kNone);

  LoserTree one;
  one.Build(1, [](std::size_t, std::size_t) { return false; });
  EXPECT_EQ(one.winner(), 0u);
}

// ---------------------------------------------------------------------
// RunMerger integration: spill real runs into TEMP zone clusters, then
// merge them back through the double-buffered readers (and, for the
// partitioned merge, the same runs kept in DRAM).
// ---------------------------------------------------------------------

struct MergeFixture {
  sim::Simulation sim;
  storage::ZnsSsd ssd{&sim, MakeConfig()};
  ZoneManager zm{&ssd, ZoneManagerConfig{}};

  static storage::ZnsConfig MakeConfig() {
    storage::ZnsConfig c;
    c.zone_size = KiB(64);
    c.num_zones = 64;
    c.nand.channels = 8;
    return c;
  }
};

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Writes `entries` into a fresh TEMP cluster, `per_segment` whole entries
// per flash segment (mirroring the compactor's invariant that segments
// never split an entry).
sim::Task<Status> SpillKlogRun(MergeFixture* f,
                               const std::vector<KlogEntry>& entries,
                               std::size_t per_segment, SpilledRun* out) {
  auto cluster = f->zm.AllocateCluster(ZoneType::kTemp);
  KVCSD_CO_RETURN_IF_ERROR(cluster.status());
  std::string chunk;
  std::size_t in_chunk = 0;
  for (const auto& e : entries) {
    wire::AppendKlogEntry(&chunk, Slice(e.key), e.value_addr, e.value_len,
                          e.seq, e.tombstone);
    ++in_chunk;
    if (in_chunk == per_segment) {
      auto addr = co_await f->zm.Append(*cluster, AsBytes(chunk));
      KVCSD_CO_RETURN_IF_ERROR(addr.status());
      out->segments.emplace_back(*addr,
                                 static_cast<std::uint32_t>(chunk.size()));
      chunk.clear();
      in_chunk = 0;
    }
  }
  if (!chunk.empty()) {
    auto addr = co_await f->zm.Append(*cluster, AsBytes(chunk));
    KVCSD_CO_RETURN_IF_ERROR(addr.status());
    out->segments.emplace_back(*addr,
                               static_cast<std::uint32_t>(chunk.size()));
  }
  co_return Status::Ok();
}

sim::Task<Status> SpillSidxRun(MergeFixture* f,
                               const std::vector<SidxTuple>& entries,
                               std::size_t per_segment, SpilledRun* out) {
  auto cluster = f->zm.AllocateCluster(ZoneType::kTemp);
  KVCSD_CO_RETURN_IF_ERROR(cluster.status());
  std::string chunk;
  std::size_t in_chunk = 0;
  for (const auto& e : entries) {
    wire::AppendSidxEntry(&chunk, Slice(e.skey), Slice(e.pkey), e.vaddr,
                          e.vlen);
    ++in_chunk;
    if (in_chunk == per_segment) {
      auto addr = co_await f->zm.Append(*cluster, AsBytes(chunk));
      KVCSD_CO_RETURN_IF_ERROR(addr.status());
      out->segments.emplace_back(*addr,
                                 static_cast<std::uint32_t>(chunk.size()));
      chunk.clear();
      in_chunk = 0;
    }
  }
  if (!chunk.empty()) {
    auto addr = co_await f->zm.Append(*cluster, AsBytes(chunk));
    KVCSD_CO_RETURN_IF_ERROR(addr.status());
    out->segments.emplace_back(*addr,
                               static_cast<std::uint32_t>(chunk.size()));
  }
  co_return Status::Ok();
}

TEST(RunMergerTest, MergesStridedRunsAcrossSegmentBoundaries) {
  MergeFixture f;
  testutil::RunSim(f.sim, [](MergeFixture* fx) -> sim::Task<void> {
    // Three strided runs (run r holds ids r, r+3, r+6, ...) plus one
    // empty run. Tiny 4-entry segments force several prefetch swaps per
    // run.
    constexpr std::uint64_t kIds = 60;
    std::vector<SpilledRun> runs(4);
    for (std::uint64_t r = 0; r < 3; ++r) {
      std::vector<KlogEntry> entries;
      for (std::uint64_t id = r; id < kIds; id += 3) {
        KlogEntry e;
        e.key = MakeFixedKey(id);
        e.value_addr = id * 100;
        e.value_len = static_cast<std::uint32_t>(id + 1);
        entries.push_back(std::move(e));
      }
      KVCSD_CO_ASSERT_OK(co_await SpillKlogRun(fx, entries, 4, &runs[r]));
      EXPECT_GT(runs[r].segments.size(), 1u) << "want multiple segments";
    }
    // runs[3] stays empty: zero segments, zero entries.

    RunMerger<KlogMergeTraits> merger(&fx->sim, &fx->ssd);
    std::uint64_t bytes_read = 0;
    KVCSD_CO_ASSERT_OK(co_await merger.Init(runs, &bytes_read));
    EXPECT_EQ(merger.fan_in(), 4u);

    std::uint64_t popped = 0;
    while (!merger.Empty()) {
      KlogEntry e;
      KVCSD_CO_ASSERT_OK(co_await merger.Pop(&e));
      EXPECT_EQ(e.key, MakeFixedKey(popped));
      EXPECT_EQ(e.value_addr, popped * 100);
      EXPECT_EQ(e.value_len, popped + 1);
      ++popped;
    }
    EXPECT_EQ(popped, kIds);
    EXPECT_GT(bytes_read, 0u);
  }(&f));
}

TEST(RunMergerTest, SingleRunStreamsInOrder) {
  MergeFixture f;
  testutil::RunSim(f.sim, [](MergeFixture* fx) -> sim::Task<void> {
    std::vector<KlogEntry> entries;
    for (std::uint64_t id = 0; id < 17; ++id) {
      KlogEntry e;
      e.key = MakeFixedKey(id);
      e.value_addr = id;
      e.value_len = 1;
      entries.push_back(std::move(e));
    }
    std::vector<SpilledRun> runs(1);
    KVCSD_CO_ASSERT_OK(co_await SpillKlogRun(fx, entries, 5, &runs[0]));

    RunMerger<KlogMergeTraits> merger(&fx->sim, &fx->ssd);
    KVCSD_CO_ASSERT_OK(co_await merger.Init(runs, nullptr));
    std::uint64_t popped = 0;
    while (!merger.Empty()) {
      KlogEntry e;
      KVCSD_CO_ASSERT_OK(co_await merger.Pop(&e));
      EXPECT_EQ(e.key, MakeFixedKey(popped));
      ++popped;
    }
    EXPECT_EQ(popped, 17u);
  }(&f));
}

TEST(RunMergerTest, AllRunsEmptyIsImmediatelyDrained) {
  MergeFixture f;
  testutil::RunSim(f.sim, [](MergeFixture* fx) -> sim::Task<void> {
    std::vector<SpilledRun> runs(3);
    RunMerger<KlogMergeTraits> merger(&fx->sim, &fx->ssd);
    KVCSD_CO_ASSERT_OK(co_await merger.Init(runs, nullptr));
    EXPECT_TRUE(merger.Empty());
  }(&f));
}

TEST(RunMergerTest, SidxTiesOrderByPkeyThenRunIndex) {
  MergeFixture f;
  testutil::RunSim(f.sim, [](MergeFixture* fx) -> sim::Task<void> {
    // Both runs share secondary key "sk0"; pkeys interleave across the
    // runs, and ("sk0", pkey 2) appears in BOTH runs — the run-0 copy
    // (vaddr marker 0) must come out before the run-1 copy (marker 1000).
    auto tuple = [](const std::string& sk, std::uint64_t pk,
                    std::uint64_t marker) {
      SidxTuple t;
      t.skey = sk;
      t.pkey = MakeFixedKey(pk);
      t.vaddr = marker + pk;
      t.vlen = 4;
      return t;
    };
    std::vector<SidxTuple> run0 = {tuple("sk0", 0, 0), tuple("sk0", 2, 0),
                                   tuple("sk0", 4, 0), tuple("sk1", 0, 0)};
    std::vector<SidxTuple> run1 = {tuple("sk0", 1, 1000),
                                   tuple("sk0", 2, 1000),
                                   tuple("sk0", 3, 1000)};
    std::vector<SpilledRun> runs(2);
    KVCSD_CO_ASSERT_OK(co_await SpillSidxRun(fx, run0, 2, &runs[0]));
    KVCSD_CO_ASSERT_OK(co_await SpillSidxRun(fx, run1, 2, &runs[1]));

    RunMerger<SidxMergeTraits> merger(&fx->sim, &fx->ssd);
    KVCSD_CO_ASSERT_OK(co_await merger.Init(runs, nullptr));
    std::vector<SidxTuple> popped;
    while (!merger.Empty()) {
      SidxTuple t;
      KVCSD_CO_ASSERT_OK(co_await merger.Pop(&t));
      popped.push_back(std::move(t));
    }
    KVCSD_CO_ASSERT(popped.size() == 7u);
    // Global (skey, pkey) order with the duplicate's run-0 copy first.
    const std::uint64_t want_markers[] = {0, 1000, 0, 1000, 1000, 0, 0};
    const std::uint64_t want_pkeys[] = {0, 1, 2, 2, 3, 4, 0};
    for (std::size_t i = 0; i + 1 < popped.size(); ++i) {
      const bool skey_le = popped[i].skey <= popped[i + 1].skey;
      EXPECT_TRUE(skey_le);
    }
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].pkey, MakeFixedKey(want_pkeys[i])) << "at " << i;
      EXPECT_EQ(popped[i].vaddr, want_markers[i] + want_pkeys[i])
          << "at " << i;
    }
    EXPECT_EQ(popped.back().skey, "sk1");
  }(&f));
}

// Gives `run`, spilled from `entries`, a run index that marks every
// `stride`-th entry (SpillRun marks by bytes; entries are what matter).
// Returns the run's serialized bytes.
std::string IndexEveryNth(const std::vector<KlogEntry>& entries,
                          std::size_t stride, SpilledRun* run) {
  std::string serialized;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % stride == 0) {
      run->index.push_back(RunMark{entries[i].key, serialized.size()});
    }
    KlogMergeTraits::Append(&serialized, entries[i]);
  }
  run->bytes = serialized.size();
  return serialized;
}

sim::Task<void> PopAll(RunMerger<KlogMergeTraits>* merger,
                       std::vector<std::pair<std::string, std::uint64_t>>* out) {
  while (!merger->Empty()) {
    KlogEntry e;
    KVCSD_CO_ASSERT_OK(co_await merger->Pop(&e));
    out->emplace_back(e.key, e.seq);
  }
}

// Key-range partitions merged one after another give exactly the full
// merge's stream: every version of every key, in the same order, even
// though index marks fall inside equal-key groups and each key has
// versions in every run. The same runs kept in DRAM (resident) merge to
// the same stream, whole and by partition.
TEST(RunMergerTest, PartitionsConcatenateToTheFullMerge) {
  MergeFixture f;
  testutil::RunSim(f.sim, [](MergeFixture* fx) -> sim::Task<void> {
    constexpr std::uint64_t kIds = 40;
    std::vector<SpilledRun> runs(3);
    std::vector<SpilledRun> resident(runs.size());
    for (std::uint64_t r = 0; r < runs.size(); ++r) {
      std::vector<KlogEntry> entries;
      for (std::uint64_t id = 0; id < kIds; ++id) {
        for (std::uint64_t v = 0; v <= (id + r) % 3; ++v) {
          KlogEntry e;
          e.key = MakeFixedKey(id);
          e.seq = r * 1000 + id * 3 + v;
          e.tombstone = (id + v) % 5 == 0;
          entries.push_back(std::move(e));
        }
      }
      KVCSD_CO_ASSERT_OK(co_await SpillKlogRun(fx, entries, 5, &runs[r]));
      resident[r].resident = IndexEveryNth(entries, 2, &runs[r]);
      resident[r].index = runs[r].index;
      resident[r].bytes = runs[r].bytes;
    }

    std::vector<std::pair<std::string, std::uint64_t>> full;
    RunMerger<KlogMergeTraits> whole(&fx->sim, &fx->ssd, KeyRange{});
    KVCSD_CO_ASSERT_OK(co_await whole.Init(runs, nullptr));
    co_await PopAll(&whole, &full);

    const std::vector<std::string> splitters = PickSplitters(runs, 100);
    KVCSD_CO_ASSERT(splitters.size() > 3);
    KVCSD_CO_ASSERT(std::is_sorted(splitters.begin(), splitters.end()));
    for (const std::vector<SpilledRun>* set : {&runs, &resident}) {
      SCOPED_TRACE(set == &runs ? "spilled" : "resident");
      std::vector<std::pair<std::string, std::uint64_t>> joined;
      for (std::size_t p = 0; p <= splitters.size(); ++p) {
        KeyRange range;
        if (p > 0) range.lo = splitters[p - 1];
        if (p < splitters.size()) range.hi = splitters[p];
        RunMerger<KlogMergeTraits> part(&fx->sim, &fx->ssd, range);
        KVCSD_CO_ASSERT_OK(co_await part.Init(*set, nullptr));
        const std::size_t before = joined.size();
        co_await PopAll(&part, &joined);
        EXPECT_GT(joined.size(), before) << "empty partition " << p;
        for (std::size_t i = before; i < joined.size(); ++i) {
          EXPECT_GE(joined[i].first, range.lo);
          if (range.hi.has_value()) {
            EXPECT_LT(joined[i].first, *range.hi);
          }
        }
      }
      EXPECT_EQ(joined, full);
    }
    std::vector<std::pair<std::string, std::uint64_t>> whole_resident;
    RunMerger<KlogMergeTraits> merged(&fx->sim, &fx->ssd, KeyRange{});
    KVCSD_CO_ASSERT_OK(co_await merged.Init(resident, nullptr));
    co_await PopAll(&merged, &whole_resident);
    EXPECT_EQ(whole_resident, full);
  }(&f));
}

}  // namespace
}  // namespace kvcsd::device
