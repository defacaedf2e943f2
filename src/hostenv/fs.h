// Extent-based host filesystem model ("ext4-ish") that the software
// key-value baseline runs on.
//
// Functional contract: files are named byte arrays with append/pread
// semantics — real bytes, so SSTables and WALs written through this layer
// read back exactly. Timing contract: every operation charges the host CPU
// for its software path (syscall / full I/O path) and the block SSD for
// device time; reads go through the page cache at 4 KB granularity, which
// is where the paper's read amplification and cache-warming effects
// (Fig. 10) come from. Appends are buffered and written back in large
// sequential requests (delayed allocation), and Sync() adds a journal
// commit, which is how ext4 behaves under RocksDB.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hostenv/cost_model.h"
#include "hostenv/page_cache.h"
#include "sim/resources.h"
#include "sim/task.h"
#include "storage/block_ssd.h"

namespace kvcsd::hostenv {

struct FsConfig {
  std::uint64_t writeback_threshold = MiB(8);  // dirty bytes before flush
  std::uint64_t max_device_request = MiB(1);   // split writebacks/reads
  std::uint32_t block_size = 4096;
};

class Fs;

// A handle to an open file. Cheap to copy; validity tracked by generation
// so operations on deleted files fail cleanly instead of dangling.
class FileHandle {
 public:
  FileHandle() = default;
  bool valid() const { return fs_ != nullptr; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Fs;
  FileHandle(Fs* fs, std::uint64_t id) : fs_(fs), id_(id) {}
  Fs* fs_ = nullptr;
  std::uint64_t id_ = 0;
};

class Fs {
 public:
  Fs(sim::Simulation* sim, sim::CpuPool* cpu, storage::BlockSsd* ssd,
     PageCache* page_cache, const CostModel& costs,
     FsConfig config = FsConfig{});

  // --- namespace operations (synchronous metadata, cheap) ---
  Result<FileHandle> Create(const std::string& name);
  Result<FileHandle> Open(const std::string& name) const;
  bool Exists(const std::string& name) const;
  Result<std::uint64_t> FileSize(const std::string& name) const;
  std::vector<std::string> ListFiles() const;

  // --- data path (timed) ---
  sim::Task<Status> Append(FileHandle h, std::span<const std::byte> data);
  sim::Task<Status> Pread(FileHandle h, std::uint64_t offset,
                          std::span<std::byte> out);
  // Direct read: bypasses the page cache in both directions (no lookups,
  // no pollution). Models RocksDB's fadvise(DONTNEED)/direct-I/O
  // compaction reads, which always hit the device.
  sim::Task<Status> PreadDirect(FileHandle h, std::uint64_t offset,
                                std::span<std::byte> out);
  // Writes back dirty data and commits the journal (fsync).
  sim::Task<Status> Sync(FileHandle h);
  // Deletes the file; invalidates its cached pages. Timed lightly.
  sim::Task<Status> Delete(const std::string& name);

  PageCache& page_cache() { return *page_cache_; }
  storage::BlockSsd& ssd() { return *ssd_; }

  // Traffic actually exchanged with the device through this filesystem.
  std::uint64_t device_bytes_read() const { return device_bytes_read_; }
  std::uint64_t device_bytes_written() const { return device_bytes_written_; }
  std::uint64_t journal_commits() const { return journal_commits_; }

 private:
  struct Extent {
    std::uint64_t file_offset;
    std::uint64_t device_offset;
    std::uint64_t length;
  };

  struct FileRep {
    std::uint64_t id;
    std::string name;
    std::vector<std::byte> data;
    std::uint64_t flushed = 0;  // bytes already written back to the device
    std::vector<Extent> extents;
    bool deleted = false;
  };

  Result<FileRep*> Resolve(FileHandle h) const;
  sim::Task<Status> Writeback(FileRep* file);
  std::uint64_t DeviceOffsetFor(const FileRep& file,
                                std::uint64_t file_offset) const;

  sim::Simulation* sim_;
  sim::CpuPool* cpu_;
  storage::BlockSsd* ssd_;
  PageCache* page_cache_;
  CostModel costs_;
  FsConfig config_;

  std::unordered_map<std::string, std::uint64_t> names_;
  std::unordered_map<std::uint64_t, std::unique_ptr<FileRep>> files_;
  std::uint64_t next_file_id_ = 1;
  std::uint64_t alloc_cursor_ = 0;  // bump allocator for device extents

  std::uint64_t device_bytes_read_ = 0;
  std::uint64_t device_bytes_written_ = 0;
  std::uint64_t journal_commits_ = 0;
};

}  // namespace kvcsd::hostenv
