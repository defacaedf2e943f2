// The device's windowed in-order writers (DESIGN.md §7), shared by the
// compaction (compactor.cc) and the incremental fold (recompact.cc).
//
//  * ChainWriter — the one writer of every compaction output chain: the
//    TEMP runs of both external sorts, the SORTED_VALUES of a compaction
//    and of a fold, and the PIDX/SIDX blocks of a compaction, a
//    secondary-index build and a fold. It keeps up to
//    config.gather_fanout appends in flight.
//  * ValueBatch — values in key order on their way to SORTED_VALUES: a
//    compaction's merged batch or a fold's delta. Admit() is the one rule
//    that cuts values into appends, and Device::WriteValues (compactor.cc)
//    issues those appends through a ChainWriter.
//  * IndexWriter — packs PIDX or SIDX entries into index blocks and
//    writes them through a ChainWriter, one sketch entry per block,
//    carrying the block's value spans (DESIGN.md §10).
//
// An append claims its flash address synchronously when it starts;
// appends start in issue order and one writer owns its chain, so every
// byte lands at the address a serial writer gives it: the window changes
// when a block is written, never where.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "sim/parallel.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::device {

// Join() must run before the writer is destroyed or the addresses it
// reports are read — on every path, failed ones included.
class Device::ChainWriter {
 public:
  // Receives an append's flash address once the append has landed.
  using Landed = std::function<void(std::uint64_t addr)>;

  ChainWriter(Device* dev, std::vector<ClusterId>* chain, ZoneType type,
              sim::Activity act)
      : dev_(dev),
        chain_(chain),
        type_(type),
        act_(act),
        slots_(dev->sim_,
               std::max<std::uint32_t>(dev->config_.gather_fanout, 1)),
        appends_(dev->sim_) {}
  ChainWriter(const ChainWriter&) = delete;
  ChainWriter& operator=(const ChainWriter&) = delete;

  // Waits for a window slot, charges the per-I/O software path and issues
  // `data` as one append without waiting for it to land. Fails fast once
  // an earlier append has failed.
  sim::Task<Status> Append(std::string data, const Landed& landed) {
    if (!error_.ok()) co_return error_;
    co_await slots_.Acquire();
    co_await dev_->cpu_.Compute(dev_->config_.costs.io_path_overhead, act_);
    if (!error_.ok()) {
      slots_.Release();
      co_return error_;
    }
    appends_.Spawn(Run(std::move(data), landed));
    co_return Status::Ok();
  }

  // Waits for every issued append; returns the first failure.
  sim::Task<Status> Join() { return appends_.Wait(); }

  std::int64_t inflight() const { return appends_.pending(); }

 private:
  sim::Task<Status> Run(std::string data, Landed landed) {
    auto addr = co_await dev_->AppendToChain(
        chain_, type_, wire::AsBytes(data), act_);
    slots_.Release();
    if (!addr.ok()) {
      if (error_.ok()) error_ = addr.status();
      co_return addr.status();
    }
    dev_->compaction_stats_.bytes_written += data.size();
    landed(*addr);
    co_return Status::Ok();
  }

  Device* dev_;
  std::vector<ClusterId>* chain_;
  ZoneType type_;
  sim::Activity act_;
  sim::Semaphore slots_;  // bounds the appends in flight
  sim::TaskGroup appends_;
  Status error_;  // first failed append
};

// Entries in key order and, once loaded, their values (values[i] belongs
// to entries[i]). Device::WriteValues re-points each entry's value_addr at
// its SORTED_VALUES copy.
struct Device::ValueBatch {
  explicit ValueBatch(std::uint64_t limit) : append_limit(limit) {}

  // Adds `entry` (moving from it) and returns true, unless the batch holds
  // `budget` value bytes and the entry would start a new append: then the
  // batch must end right before it, and nothing changes. The appends are
  // cut greedily: a value starts a new one when it would push the open
  // one past append_limit. A tombstone has no value and starts none.
  bool Admit(KlogEntry& entry,
             std::uint64_t budget = std::numeric_limits<std::uint64_t>::max()) {
    const bool starts = !entry.tombstone && fill > 0 &&
                        fill + entry.value_len > append_limit;
    if (starts && value_bytes >= budget) return false;
    if (starts) append_starts.push_back(entries.size());
    fill = starts ? entry.value_len : fill + entry.value_len;
    value_bytes += entry.value_len;
    entries.push_back(std::move(entry));
    return true;
  }

  std::uint64_t append_limit;
  std::uint64_t index = 0;  // a compaction's batches, in merge order
  std::vector<KlogEntry> entries;
  std::vector<std::string> values;
  std::vector<std::size_t> append_starts;  // entries opening a new append
  std::uint64_t fill = 0;                   // bytes in the open append
  std::uint64_t value_bytes = 0;
};

// Entries pack into blocks exactly as IndexBlockPacker packs them; every
// output batch of closed blocks is one append. Sketch entries are pushed
// at issue time and their addresses filled in when the append lands, so
// Join() must run before the sketch is read or the writer destroyed.
class Device::IndexWriter {
 public:
  IndexWriter(Device* dev, ZoneType type, std::vector<ClusterId>* chain,
              std::vector<SketchEntry>* sketch, sim::Activity act)
      : dev_(dev),
        sketch_(sketch),
        packer_(kIndexBlockSize, dev->ssd_.zone_size()),
        out_(dev, chain, type, act) {}

  // Add one entry to the open block. Each returns true once the closed
  // blocks fill an output batch, i.e. when Flush() is due.
  bool AddPidx(const Slice& key, std::uint64_t vaddr, std::uint32_t vlen) {
    packer_.AddPidx(key, vaddr, vlen);
    return packer_.closed_bytes() >= dev_->config_.output_batch_bytes;
  }
  bool AddSidx(const SidxTuple& t) {
    packer_.AddSidx(t.skey, t.pkey, t.vaddr, t.vlen);
    return packer_.closed_bytes() >= dev_->config_.output_batch_bytes;
  }

  // Issues the closed blocks as one append (no-op when there are none).
  sim::Task<Status> Flush() {
    if (packer_.closed_bytes() == 0) co_return Status::Ok();
    std::vector<wire::PackedBlock> packed;
    std::string blob = packer_.Take(&packed);
    const std::size_t first = sketch_->size();
    for (wire::PackedBlock& b : packed) {
      sketch_->push_back(SketchEntry{std::move(b.pivot), 0, kIndexBlockSize,
                                     std::move(b.spans)});
    }
    std::vector<SketchEntry>* sketch = sketch_;
    const std::size_t blocks = packed.size();
    co_return co_await out_.Append(
        std::move(blob), [sketch, first, blocks](std::uint64_t addr) {
          for (std::size_t i = 0; i < blocks; ++i) {
            (*sketch)[first + i].block_addr = addr + i * kIndexBlockSize;
          }
        });
  }

  // Closes the open block and issues everything packed so far: the
  // entries added since the previous Close() never share a block or an
  // append with the ones after it.
  sim::Task<Status> Close() {
    packer_.Close();
    return Flush();
  }

  sim::Task<Status> Join() { return out_.Join(); }
  std::int64_t inflight() const { return out_.inflight(); }

 private:
  Device* dev_;
  std::vector<SketchEntry>* sketch_;
  wire::IndexBlockPacker packer_;
  ChainWriter out_;
};

}  // namespace kvcsd::device
