// DRAM-resident cache of 4 KB PIDX/SIDX index blocks (DESIGN.md §10).
//
// The device's query path re-reads index blocks from flash on every
// lookup; this cache keeps recently used blocks in the SoC DRAM budget
// carved out by DeviceConfig::EffectiveIndexCacheBytes(). Entries are
// keyed by (keyspace id, block address): keyspace ids are never reused
// within a device lifetime, so a block address recycled by a later zone
// reset can only collide under the SAME keyspace — and those entries are
// invalidated explicitly at the two points a keyspace's index blocks can
// change identity (compaction commit, keyspace drop). A power cycle
// constructs a fresh Device and with it an empty cache.
//
// Plain LRU (std::list MRU-front + map of iterators), byte-charged by
// block size. Deterministic: eviction order depends only on the access
// sequence, never on timing.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>

namespace kvcsd::device {

class IndexBlockCache {
 public:
  // capacity_bytes == 0 disables the cache entirely.
  explicit IndexBlockCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  bool enabled() const { return capacity_ > 0; }

  // Copies the cached block into *out and promotes it to MRU. Counts a
  // hit or miss either way; returns false when absent (or disabled).
  bool Lookup(std::uint64_t keyspace_id, std::uint64_t block_addr,
              std::string* out);

  // True when the block is cached. Neither counts nor promotes: the
  // point lookup asks before deciding how to read, then reads through
  // Lookup.
  bool Contains(std::uint64_t keyspace_id, std::uint64_t block_addr) const {
    return map_.contains(Key{keyspace_id, block_addr});
  }

  // Inserts (or refreshes) a block, evicting LRU entries until it fits.
  // Blocks larger than the whole capacity are not cached.
  void Insert(std::uint64_t keyspace_id, std::uint64_t block_addr,
              const std::string& block);

  // Drops every block belonging to `keyspace_id` (drop / re-compaction).
  void EraseKeyspace(std::uint64_t keyspace_id);

  void Clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t charge() const { return charge_; }
  std::uint64_t entries() const { return map_.size(); }
  std::uint64_t capacity() const { return capacity_; }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  struct Entry {
    Key key;
    std::string block;
  };
  using List = std::list<Entry>;

  void EvictOne();

  std::uint64_t capacity_;
  std::uint64_t charge_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  List lru_;  // front = most recently used
  std::map<Key, List::iterator> map_;
};

}  // namespace kvcsd::device
