// RocksLite: a from-scratch leveled LSM key-value store in the
// LevelDB/RocksDB tradition, used as the paper's software baseline.
//
// Architecture (all virtual-time, real data):
//   Put  -> WAL append -> memtable (skiplist). Full memtables rotate to an
//           immutable list and background workers flush them to L0 SSTs.
//   Auto compaction: L0 reaching `l0_compaction_trigger` files merges into
//           L1; any level over its size target merges one file down. Two
//           background workers per instance (RocksDB's default in the
//           paper's setup) share the host CPU pool with the foreground.
//   Write stalls: Put blocks while too many immutable memtables or L0
//           files are pending — the exact "write stall" failure mode the
//           paper cites [34].
//   Get  -> memtable -> immutables -> L0 newest-first -> L1.. binary
//           search, with bloom filters and the block cache en route.
//   Modes: kAuto (RocksDB default), kDeferred (compaction held until
//           CompactRange() — single-pass global merge), kNone.
//
// Durability: WAL with CRC records; MANIFEST rewritten on every version
// change; Open() recovers levels from MANIFEST and replays WALs.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/env.h"
#include "lsm/internal_key.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::lsm {

enum class CompactionMode {
  kAuto,      // background compaction as data is inserted (RocksDB default)
  kDeferred,  // compaction held until an explicit CompactRange()
  kNone,      // compaction disabled entirely
};

// Writes stall above this many pending memtable flushes.
inline constexpr int kMaxImmMemtables = 2;
// Background flush/compaction workers per DB.
inline constexpr int kBackgroundWorkers = 2;

struct DbOptions {
  std::string name = "db";
  std::uint64_t memtable_size = MiB(16);
  int l0_compaction_trigger = 4;
  int l0_stall_trigger = 12;
  // L1 target; L(n+1) = VersionSet::kLevelMultiplier x L(n).
  std::uint64_t level_base_size = MiB(64);
  std::uint64_t max_file_size = MiB(16);
  SstableOptions table;
  CompactionMode compaction_mode = CompactionMode::kAuto;
};

// Cumulative I/O and behaviour counters for one DB instance (the numbers
// behind the paper's Fig. 7b / 10b "I/O statistics").
struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_bytes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compact_bytes_read = 0;
  std::uint64_t compact_bytes_written = 0;
  std::uint64_t wal_bytes = 0;
  Tick stall_time = 0;
  std::uint64_t stalls = 0;
};

class Db {
 public:
  // Opens (and recovers, if MANIFEST/WAL files exist) a database. The
  // BlockCache may be shared across instances (RocksDB-style).
  static sim::Task<Result<std::unique_ptr<Db>>> Open(LsmEnv* env,
                                                     BlockCache* block_cache,
                                                     DbOptions options);
  ~Db() = default;
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  sim::Task<Status> Put(const Slice& key, const Slice& value);
  sim::Task<Status> Delete(const Slice& key);
  sim::Task<Status> Get(const Slice& key, std::string* value);

  // Collects live (key, value) pairs with lo <= key <= hi, up to `limit`
  // (0 = unlimited).
  sim::Task<Status> RangeScan(const Slice& lo, const Slice& hi,
                              std::size_t limit,
                              std::vector<std::pair<std::string,
                                                    std::string>>* out);

  // Flushes the active memtable (if non-empty) and waits for it to land.
  sim::Task<Status> Flush();

  // Manual full compaction: flush, then a single-pass merge of every file
  // into the bottom level. This is what "deferred compaction" mode runs
  // after load completes, and matches the paper's description of a single
  // end-of-job pass.
  sim::Task<Status> CompactRange();

  // Waits until no background work is pending or running.
  sim::Task<void> WaitForIdle();

  // Drains background work and stops the workers. Must be called before
  // destruction (the destructor cannot wait in virtual time).
  sim::Task<Status> Close();

  const DbStats& stats() const { return stats_; }
  const VersionSet& versions() const { return versions_; }
  int NumLevelFiles(int level) const {
    return static_cast<int>(versions_.files(level).size());
  }
  std::uint64_t NumEntriesApprox() const;

 private:
  Db(LsmEnv* env, BlockCache* block_cache, DbOptions options);

  std::string SstFileName(std::uint64_t number) const;
  std::string WalFileName(std::uint64_t number) const;
  std::string ManifestName() const;

  sim::Task<Status> Recover();
  sim::Task<Status> WriteManifest();
  sim::Task<Status> ReplayWal(const std::string& wal_name);

  sim::Task<Status> WriteEntry(ValueType type, const Slice& key,
                               const Slice& value);
  sim::Task<Status> MaybeStall();
  sim::Task<Status> SwitchMemtable();

  // --- background machinery ---
  void ScheduleWork();
  sim::Task<void> BackgroundWorker(int id);
  bool HasFlushWork() const { return !imm_.empty(); }
  bool HasCompactionWork() const;
  bool IsIdle() const;
  void SignalStateChange();

  sim::Task<Status> RunFlush();
  sim::Task<Status> RunCompaction();
  struct CompactionInput {
    int level;
    std::shared_ptr<FileMeta> file;
  };
  // Single-pass merge of `inputs` (plus shadowing resolution) into
  // `output_level`; drop tombstones iff `drop_deletions`.
  sim::Task<Status> MergeFiles(std::vector<CompactionInput> inputs,
                               int output_level, bool drop_deletions);
  bool RangeHasDeeperData(int below_level, const Slice& smallest_user,
                          const Slice& largest_user) const;
  sim::Task<Result<std::shared_ptr<FileMeta>>> OpenFileMeta(
      std::uint64_t number, const SstableBuilder& builder);

  // Globally-unique prefix for this instance's blocks in the shared
  // block cache (file numbers alone collide across instances).
  std::uint64_t CacheKeyFor(std::uint64_t file_number) const {
    return (cache_id_ << 24) | file_number;
  }
  std::uint64_t cache_id_ = 0;

  Status bg_error_;  // first background failure; surfaced on next write

  LsmEnv* env_;
  BlockCache* block_cache_;
  DbOptions options_;

  SequenceNumber seq_ = 0;
  std::unique_ptr<MemTable> mem_;
  std::uint64_t mem_wal_number_ = 0;
  std::unique_ptr<WalWriter> wal_;

  struct ImmEntry {
    std::unique_ptr<MemTable> mem;
    std::uint64_t wal_number;
  };
  std::deque<ImmEntry> imm_;

  VersionSet versions_;

  // Background coordination.
  sim::Semaphore manifest_lock_;  // flush & compaction both rewrite MANIFEST
  sim::Channel<int> work_signal_;
  sim::Event state_changed_;     // pulsed whenever bg state advances
  sim::WaitGroup workers_done_;
  bool flush_running_ = false;
  // Levels currently being compacted (input or output). Concurrent
  // compactions on disjoint level pairs are allowed, like RocksDB's
  // parallel background jobs; a manual CompactRange claims everything.
  std::set<int> levels_compacting_;
  bool manual_compaction_ = false;
  bool shutting_down_ = false;
  bool closed_ = false;

  DbStats stats_;
};

}  // namespace kvcsd::lsm
