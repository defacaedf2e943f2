#include "hostenv/fs.h"

#include <algorithm>
#include <cstring>

namespace kvcsd::hostenv {

Fs::Fs(sim::Simulation* sim, sim::CpuPool* cpu, storage::BlockSsd* ssd,
       PageCache* page_cache, const CostModel& costs, FsConfig config)
    : sim_(sim),
      cpu_(cpu),
      ssd_(ssd),
      page_cache_(page_cache),
      costs_(costs),
      config_(config) {}

Result<FileHandle> Fs::Create(const std::string& name) {
  if (names_.contains(name)) {
    return Status::AlreadyExists("file exists: " + name);
  }
  auto rep = std::make_unique<FileRep>();
  rep->id = next_file_id_++;
  rep->name = name;
  FileHandle handle(this, rep->id);
  names_[name] = rep->id;
  files_[rep->id] = std::move(rep);
  return handle;
}

Result<FileHandle> Fs::Open(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return Status::NotFound("no such file: " + name);
  return FileHandle(const_cast<Fs*>(this), it->second);
}

bool Fs::Exists(const std::string& name) const {
  return names_.contains(name);
}

Result<std::uint64_t> Fs::FileSize(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return Status::NotFound("no such file: " + name);
  return files_.at(it->second)->data.size();
}

std::vector<std::string> Fs::ListFiles() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [name, id] : names_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

Result<Fs::FileRep*> Fs::Resolve(FileHandle h) const {
  if (!h.valid() || h.fs_ != this) {
    return Status::InvalidArgument("invalid file handle");
  }
  auto it = files_.find(h.id());
  if (it == files_.end() || it->second->deleted) {
    return Status::NotFound("file was deleted");
  }
  return it->second.get();
}

std::uint64_t Fs::DeviceOffsetFor(const FileRep& file,
                                  std::uint64_t file_offset) const {
  // Extents are appended in file order; binary search the covering extent.
  auto it = std::upper_bound(
      file.extents.begin(), file.extents.end(), file_offset,
      [](std::uint64_t off, const Extent& e) { return off < e.file_offset; });
  if (it == file.extents.begin()) return file_offset;  // not yet flushed
  --it;
  return it->device_offset + (file_offset - it->file_offset);
}

sim::Task<Status> Fs::Writeback(FileRep* file) {
  while (file->flushed < file->data.size()) {
    const std::uint64_t chunk = std::min<std::uint64_t>(
        config_.max_device_request, file->data.size() - file->flushed);
    const std::uint64_t device_offset = alloc_cursor_;
    alloc_cursor_ += (chunk + config_.block_size - 1) / config_.block_size *
                     config_.block_size;
    file->extents.push_back(Extent{file->flushed, device_offset, chunk});

    // One pass through the kernel I/O path per device request.
    co_await cpu_->Compute(costs_.io_path_overhead);
    co_await ssd_->Write(device_offset, chunk);
    device_bytes_written_ += chunk;

    // Freshly written pages are resident in the page cache.
    const std::uint64_t first_block = file->flushed / config_.block_size;
    const std::uint64_t last_block =
        (file->flushed + chunk - 1) / config_.block_size;
    for (std::uint64_t b = first_block; b <= last_block; ++b) {
      page_cache_->Insert(file->id, b);
    }
    file->flushed += chunk;
  }
  co_return Status::Ok();
}

sim::Task<Status> Fs::Append(FileHandle h, std::span<const std::byte> data) {
  auto file = Resolve(h);
  if (!file.ok()) co_return file.status();
  FileRep* rep = *file;

  co_await cpu_->Compute(costs_.syscall_overhead);
  co_await cpu_->ComputeBytes(data.size(), costs_.memcpy_bytes_per_sec);
  rep->data.insert(rep->data.end(), data.begin(), data.end());

  // Delayed allocation: write back once enough dirty bytes accumulate,
  // modelling kernel writeback throttling for streaming writers.
  if (rep->data.size() - rep->flushed >= config_.writeback_threshold) {
    co_await Writeback(rep);
  }
  co_return Status::Ok();
}

sim::Task<Status> Fs::Pread(FileHandle h, std::uint64_t offset,
                            std::span<std::byte> out) {
  auto file = Resolve(h);
  if (!file.ok()) co_return file.status();
  FileRep* rep = *file;
  if (offset + out.size() > rep->data.size()) {
    co_return Status::InvalidArgument("pread beyond EOF");
  }
  co_await cpu_->Compute(costs_.syscall_overhead);

  // Walk the touched blocks; group consecutive cache misses into single
  // device requests (readahead-style coalescing).
  const std::uint32_t bs = config_.block_size;
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block =
      out.empty() ? first_block : (offset + out.size() - 1) / bs;
  std::uint64_t miss_run_start = 0;
  bool in_miss_run = false;
  for (std::uint64_t b = first_block; b <= last_block + 1; ++b) {
    const bool miss = b <= last_block && !page_cache_->Lookup(rep->id, b);
    if (miss && !in_miss_run) {
      in_miss_run = true;
      miss_run_start = b;
    } else if (!miss && in_miss_run) {
      in_miss_run = false;
      std::uint64_t run_bytes = (b - miss_run_start) * bs;
      const std::uint64_t run_off = miss_run_start * bs;
      if (run_off + run_bytes > rep->flushed) {
        // Unflushed tail lives only in memory: no device read needed for
        // that part.
        run_bytes = run_off < rep->flushed ? rep->flushed - run_off : 0;
      }
      if (run_bytes > 0) {
        std::uint64_t done = 0;
        while (done < run_bytes) {
          const std::uint64_t req = std::min<std::uint64_t>(
              config_.max_device_request, run_bytes - done);
          co_await cpu_->Compute(costs_.io_path_overhead);
          co_await ssd_->Read(DeviceOffsetFor(*rep, run_off + done), req);
          device_bytes_read_ += req;
          done += req;
        }
      }
      for (std::uint64_t blk = miss_run_start; blk < b; ++blk) {
        page_cache_->Insert(rep->id, blk);
      }
    }
  }

  co_await cpu_->ComputeBytes(out.size(), costs_.memcpy_bytes_per_sec);
  std::memcpy(out.data(), rep->data.data() + offset, out.size());
  co_return Status::Ok();
}

sim::Task<Status> Fs::PreadDirect(FileHandle h, std::uint64_t offset,
                                  std::span<std::byte> out) {
  auto file = Resolve(h);
  if (!file.ok()) co_return file.status();
  FileRep* rep = *file;
  if (offset + out.size() > rep->data.size()) {
    co_return Status::InvalidArgument("pread beyond EOF");
  }
  co_await cpu_->Compute(costs_.syscall_overhead);

  // Only the flushed extent lives on the device; the unflushed tail is
  // memory-resident and free to read.
  const std::uint64_t flushed_end =
      std::min<std::uint64_t>(rep->flushed, offset + out.size());
  if (flushed_end > offset) {
    std::uint64_t done = offset;
    while (done < flushed_end) {
      const std::uint64_t req = std::min<std::uint64_t>(
          config_.max_device_request, flushed_end - done);
      co_await cpu_->Compute(costs_.io_path_overhead);
      co_await ssd_->Read(DeviceOffsetFor(*rep, done), req);
      device_bytes_read_ += req;
      done += req;
    }
  }
  co_await cpu_->ComputeBytes(out.size(), costs_.memcpy_bytes_per_sec);
  std::memcpy(out.data(), rep->data.data() + offset, out.size());
  co_return Status::Ok();
}

sim::Task<Status> Fs::Sync(FileHandle h) {
  auto file = Resolve(h);
  if (!file.ok()) co_return file.status();
  co_await Writeback(*file);
  // Journal commit: one 4 KB metadata block plus a device flush barrier.
  co_await cpu_->Compute(costs_.io_path_overhead);
  co_await ssd_->Write(alloc_cursor_, config_.block_size);
  alloc_cursor_ += config_.block_size;
  co_await ssd_->Flush();
  ++journal_commits_;
  co_return Status::Ok();
}

sim::Task<Status> Fs::Delete(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) co_return Status::NotFound("no such file: " + name);
  co_await cpu_->Compute(costs_.syscall_overhead);
  page_cache_->InvalidateFile(it->second);
  // Keep a tombstoned rep so stale handles fail cleanly instead of
  // dangling; release the payload immediately.
  FileRep* rep = files_[it->second].get();
  rep->deleted = true;
  rep->data.clear();
  rep->data.shrink_to_fit();
  rep->extents.clear();
  names_.erase(it);
  co_return Status::Ok();
}

}  // namespace kvcsd::hostenv
