// OS page cache model: an LRU over (file, block) pages. Accounting only —
// file payloads live in the Fs layer; the cache decides whether a read
// touches the device and lets benchmarks "echo 3 > drop_caches" the way the
// paper does before each RocksDB query run.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/units.h"

namespace kvcsd::hostenv {

class PageCache {
 public:
  PageCache(std::uint64_t capacity_bytes, std::uint32_t page_size = 4096)
      : capacity_pages_(capacity_bytes / page_size) {}

  // True (and refreshed to MRU) if the page is resident.
  bool Lookup(std::uint64_t file_id, std::uint64_t block);

  // Inserts a page, evicting LRU pages beyond capacity.
  void Insert(std::uint64_t file_id, std::uint64_t block);

  // Removes every page of a file (file deletion / truncation). Costs
  // O(pages of that file), not O(cache size).
  void InvalidateFile(std::uint64_t file_id);

  // Drops the entire cache (the benchmark's "clean OS page cache").
  void DropAll();

  std::size_t resident_pages() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static std::uint64_t KeyOf(std::uint64_t file_id, std::uint64_t block) {
    return (file_id << 40) | (block & ((1ull << 40) - 1));
  }
  static std::uint64_t FileOf(std::uint64_t key) { return key >> 40; }

  void Erase(std::uint64_t key);

  std::uint64_t capacity_pages_;
  std::list<std::uint64_t> lru_;  // front = MRU
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  // Resident page keys per file, so a file's pages drop without a walk of
  // the whole LRU list.
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      by_file_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace kvcsd::hostenv
