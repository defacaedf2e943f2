// Sorted String Table: the on-disk unit of the software LSM.
//
// Layout:
//   data block*      entries: varint32 klen | internal_key | varint32 vlen
//                    | value; blocks cut at ~block_size bytes
//   filter block     bloom filter over user keys
//   index block      per data block: varint32 klen | last_internal_key |
//                    fixed64 offset | fixed64 size
//   footer (44 B)    fixed64 ×5 (index off/size, filter off/size, entry
//                    count) | fixed32 magic
//
// Readers check the magic and use the index to binary-search blocks; the
// bloom filter short-circuits point lookups for absent keys.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/block_cache.h"
#include "common/bloom.h"
#include "lsm/env.h"
#include "lsm/internal_key.h"
#include "sim/task.h"

namespace kvcsd::lsm {

constexpr std::uint32_t kSstMagic = 0x4b564353;  // "KVCS"
constexpr std::size_t kSstFooterSize = 5 * 8 + 4;

struct SstableOptions {
  std::uint32_t block_size = 4096;
  int bloom_bits_per_key = 10;
  // RocksDB's default does NOT pin index blocks in memory: point lookups
  // read the covering index page through the block cache first. Pinning
  // models `cache_index_and_filter_blocks=false` with pinned L0.
  bool pin_index_blocks = false;
};

class SstableBuilder {
 public:
  SstableBuilder(LsmEnv* env, hostenv::FileHandle file,
                 const SstableOptions& options);

  // Keys must arrive in strictly increasing internal-key order.
  sim::Task<Status> Add(const Slice& internal_key, const Slice& value);

  // Writes filter + index + footer and syncs the file.
  sim::Task<Status> Finish();

  std::uint64_t num_entries() const { return num_entries_; }
  std::uint64_t file_size() const { return offset_; }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return largest_; }

 private:
  sim::Task<Status> FlushDataBlock();

  LsmEnv* env_;
  hostenv::FileHandle file_;
  SstableOptions options_;

  std::string data_block_;
  std::string index_block_;
  BloomFilterBuilder bloom_;
  std::string last_key_;
  std::string smallest_;
  std::string largest_;
  std::uint64_t offset_ = 0;
  std::uint64_t num_entries_ = 0;
  bool finished_ = false;
};

// Immutable reader over a finished SSTable file.
class SstableReader {
 public:
  // Reads footer + index + filter into memory (RocksDB keeps these pinned
  // via the table cache; we model the same by loading them at open).
  static sim::Task<Result<std::unique_ptr<SstableReader>>> Open(
      LsmEnv* env, BlockCache* block_cache, std::uint64_t file_number,
      const std::string& file_name, const SstableOptions& options = {});

  // Point lookup at a snapshot. `found` semantics match MemTable::Get.
  sim::Task<Status> Get(const Slice& user_key, SequenceNumber snapshot,
                        std::string* value, bool* found);

  std::uint64_t num_entries() const { return num_entries_; }

  // Streaming iteration in internal-key order. Compaction passes
  // fill_cache=false so bulk reads do not evict the hot read-path blocks
  // (RocksDB does the same).
  class Iterator {
   public:
    explicit Iterator(SstableReader* table, bool fill_cache = true)
        : table_(table), fill_cache_(fill_cache) {}

    // Positions at the first entry with internal key >= target (or end).
    sim::Task<Status> Seek(const Slice& target);
    sim::Task<Status> SeekToFirst();
    sim::Task<Status> Next();

    bool Valid() const { return valid_; }
    Slice internal_key() const { return Slice(key_); }
    Slice value() const { return Slice(value_); }

   private:
    sim::Task<Status> LoadBlock(std::size_t index_pos);
    bool ParseCurrentEntry();

    SstableReader* table_;
    bool fill_cache_ = true;
    bool valid_ = false;
    std::size_t block_index_ = 0;  // position in the index
    std::string block_;            // current data block contents
    std::size_t entry_offset_ = 0; // cursor within block_
    std::string key_;
    std::string value_;
  };

 private:
  struct IndexEntry {
    std::string last_key;  // internal key of the block's last entry
    std::uint64_t offset;
    std::uint64_t size;
    std::uint64_t index_file_offset;  // where this entry sits in the file
  };

  SstableReader(LsmEnv* env, BlockCache* block_cache,
                std::uint64_t file_number, hostenv::FileHandle file)
      : env_(env),
        block_cache_(block_cache),
        file_number_(file_number),
        file_(file) {}

  // Fetches a data block through the block cache; fill_cache=false skips
  // cache insertion (but still uses hits).
  sim::Task<Result<std::string>> ReadBlock(std::uint64_t offset,
                                           std::uint64_t size,
                                           bool fill_cache = true);

  // Index position of the first block whose last key >= target.
  std::size_t FindBlock(const Slice& internal_key_target) const;

  LsmEnv* env_;
  BlockCache* block_cache_;
  std::uint64_t file_number_;
  hostenv::FileHandle file_;
  SstableOptions options_;
  std::uint64_t file_size_ = 0;
  std::vector<IndexEntry> index_;
  std::string filter_;
  std::uint64_t num_entries_ = 0;
};

}  // namespace kvcsd::lsm
