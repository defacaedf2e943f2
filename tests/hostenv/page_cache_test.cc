#include "hostenv/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <random>
#include <utility>
#include <vector>

#include "common/units.h"

namespace kvcsd::hostenv {
namespace {

using Page = std::pair<std::uint64_t, std::uint64_t>;  // (file, block)

TEST(PageCacheTest, MissThenHit) {
  PageCache cache(MiB(1));
  EXPECT_FALSE(cache.Lookup(1, 0));
  cache.Insert(1, 0);
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCacheTest, DistinctFilesDoNotCollide) {
  PageCache cache(MiB(1));
  cache.Insert(1, 7);
  EXPECT_FALSE(cache.Lookup(2, 7));
  EXPECT_TRUE(cache.Lookup(1, 7));
}

TEST(PageCacheTest, EvictsLeastRecentlyUsed) {
  PageCache cache(4 * 4096);  // 4 pages
  for (std::uint64_t b = 0; b < 4; ++b) cache.Insert(1, b);
  EXPECT_TRUE(cache.Lookup(1, 0));  // touch 0 -> MRU
  cache.Insert(1, 4);               // evicts block 1 (LRU)
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 1));
  EXPECT_TRUE(cache.Lookup(1, 2));
  EXPECT_TRUE(cache.Lookup(1, 4));
}

TEST(PageCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  PageCache cache(4 * 4096);
  cache.Insert(1, 0);
  cache.Insert(1, 0);
  EXPECT_EQ(cache.resident_pages(), 1u);
}

TEST(PageCacheTest, InvalidateFileRemovesOnlyThatFile) {
  PageCache cache(MiB(1));
  cache.Insert(1, 0);
  cache.Insert(1, 1);
  cache.Insert(2, 0);
  cache.InvalidateFile(1);
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 1));
  EXPECT_TRUE(cache.Lookup(2, 0));
}

// The LRU as it was kept before the per-file index: one list walked in
// full by every invalidation.
class WalkingLru {
 public:
  explicit WalkingLru(std::size_t capacity_pages) : capacity_(capacity_pages) {}

  bool Lookup(std::uint64_t file, std::uint64_t block) {
    auto it = std::find(lru_.begin(), lru_.end(), Page{file, block});
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }
  void Insert(std::uint64_t file, std::uint64_t block) {
    if (Lookup(file, block)) return;
    lru_.push_front(Page{file, block});
    while (lru_.size() > capacity_) lru_.pop_back();
  }
  void InvalidateFile(std::uint64_t file) {
    lru_.remove_if([file](const Page& p) { return p.first == file; });
  }
  // Resident pages, MRU first.
  std::vector<Page> Order() const { return {lru_.begin(), lru_.end()}; }

 private:
  std::size_t capacity_;
  std::list<Page> lru_;
};

// Invalidation through the per-file index leaves the same pages in the
// same LRU order as the old full walk: a random mix of inserts, lookups
// and invalidations over a few files, in a cache small enough to evict
// constantly, answers every lookup the same way, and the survivors are
// then evicted one by one in the oracle's order.
TEST(PageCacheTest, InvalidateKeepsEvictionOrderOfFullWalk) {
  constexpr std::size_t kPages = 32;
  PageCache cache(kPages * 4096);
  WalkingLru oracle(kPages);
  std::mt19937_64 rng(11);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t file = rng() % 6;
    const std::uint64_t block = rng() % 24;
    switch (rng() % 8) {
      case 0:
        cache.InvalidateFile(file);
        oracle.InvalidateFile(file);
        break;
      case 1:
      case 2:
      case 3:
        ASSERT_EQ(cache.Lookup(file, block), oracle.Lookup(file, block))
            << "op " << op;
        break;
      default:
        cache.Insert(file, block);
        oracle.Insert(file, block);
        break;
    }
    ASSERT_EQ(cache.resident_pages(), oracle.Order().size()) << "op " << op;
  }
  // Fill the cache with fresh pages, then push one more fresh page per
  // survivor: each evicts exactly one page, which must be the oracle's
  // LRU survivor at that point.
  const std::vector<Page> order = oracle.Order();
  for (std::size_t j = order.size(); j < kPages; ++j) cache.Insert(100, j);
  ASSERT_EQ(cache.resident_pages(), kPages);
  for (std::size_t i = 0; i < order.size(); ++i) {
    cache.Insert(101, i);
    EXPECT_EQ(cache.resident_pages(), kPages);
    const Page& victim = order[order.size() - 1 - i];
    EXPECT_FALSE(cache.Lookup(victim.first, victim.second)) << "evict " << i;
  }
}

TEST(PageCacheTest, DropAllEmptiesCache) {
  PageCache cache(MiB(1));
  for (std::uint64_t b = 0; b < 100; ++b) cache.Insert(3, b);
  EXPECT_EQ(cache.resident_pages(), 100u);
  cache.DropAll();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_FALSE(cache.Lookup(3, 50));
}

}  // namespace
}  // namespace kvcsd::hostenv
