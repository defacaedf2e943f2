// Level metadata for the leveled LSM: which SSTable files live in which
// level, their key ranges, and compaction picking.
//
// Invariants:
//  * L0 files may overlap; they are ordered newest-first (descending file
//    number) because newer files shadow older ones.
//  * L1+ files are non-overlapping and sorted by smallest key.
#pragma once

#include <cstdint>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "lsm/internal_key.h"
#include "lsm/sstable.h"

namespace kvcsd::lsm {

struct FileMeta {
  std::uint64_t number = 0;
  std::uint64_t size = 0;
  std::uint64_t entries = 0;
  std::string smallest;  // internal keys
  std::string largest;
  // Pinned open reader (models the RocksDB table cache holding hot
  // tables open; index + filter stay in memory).
  std::shared_ptr<SstableReader> reader;

  Slice smallest_user() const { return ExtractUserKey(Slice(smallest)); }
  Slice largest_user() const { return ExtractUserKey(Slice(largest)); }
};

class VersionSet {
 public:
  static constexpr int kNumLevels = 7;
  // Each level below L1 targets this many times its parent's bytes.
  static constexpr double kLevelMultiplier = 10.0;

  explicit VersionSet(std::uint64_t level_base_size = 0)
      : level_base_size_(level_base_size), levels_(kNumLevels) {}

  std::uint64_t NextFileNumber() { return next_file_number_++; }
  std::uint64_t PeekNextFileNumber() const { return next_file_number_; }
  void BumpFileNumberTo(std::uint64_t at_least) {
    if (next_file_number_ < at_least) next_file_number_ = at_least;
  }

  void AddFile(int level, std::shared_ptr<FileMeta> file);
  void RemoveFile(int level, std::uint64_t number);

  const std::vector<std::shared_ptr<FileMeta>>& files(int level) const {
    return levels_[static_cast<std::size_t>(level)];
  }
  int num_levels() const { return kNumLevels; }
  std::uint64_t LevelBytes(int level) const;
  std::uint64_t TotalBytes() const;
  std::uint64_t TotalEntries() const;
  int NumFiles() const;

  // Files in `level` whose user-key range intersects [smallest, largest].
  std::vector<std::shared_ptr<FileMeta>> Overlapping(
      int level, const Slice& smallest_user, const Slice& largest_user) const;

  // Target size for a level under the leveled policy (0 for L0: L0 is
  // triggered by file count instead).
  std::uint64_t TargetBytes(int level) const;

  // Lowest level needing compaction under the leveled policy, or -1.
  // A level is only eligible when neither it nor its output level appears
  // in `busy` (levels already being compacted by another worker).
  int PickCompactionLevel(int l0_trigger,
                          const std::set<int>& busy = {}) const;

  // All files of all levels, newest-shadowing-first (L0 newest..oldest,
  // then L1..L6): the global merge order for a full manual compaction.
  std::vector<std::shared_ptr<FileMeta>> AllFiles() const;

 private:
  std::uint64_t level_base_size_;
  std::vector<std::vector<std::shared_ptr<FileMeta>>> levels_;
  std::uint64_t next_file_number_ = 1;
};

}  // namespace kvcsd::lsm
