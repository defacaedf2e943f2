// The device's windowed in-order writers (DESIGN.md §7), shared by the
// compaction (compactor.cc) and the incremental fold (recompact.cc), and
// the batched index-block reader of the whole-run index walks.
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
//  * Device::StreamIndexBlocks — the whole-run index walks' reader: a
//    fold's dirty PIDX blocks and its SIDX stream, a SIDX build's PIDX
//    scan. Batch gathers with no index-cache lookup, decoded on the SoC
//    cores.
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

  // Append groups: group g holds entries [GroupStart(g), GroupStart(g +
  // 1)) and goes out as one append. Only the last group can hold no value
  // bytes: a cut always follows a value byte.
  std::size_t groups() const { return append_starts.size() + 1; }
  std::size_t GroupStart(std::size_t g) const {
    if (g == 0) return 0;
    return g <= append_starts.size() ? append_starts[g - 1] : entries.size();
  }
  // Element g is the sum of bytes(i) over the entries of the groups before
  // g; element groups() is the sum over the batch.
  template <typename Bytes>
  std::vector<std::uint64_t> GroupOffsets(Bytes bytes) const {
    std::vector<std::uint64_t> offsets(groups() + 1, 0);
    for (std::size_t g = 0; g < groups(); ++g) {
      offsets[g + 1] = offsets[g];
      for (std::size_t i = GroupStart(g); i < GroupStart(g + 1); ++i) {
        offsets[g + 1] += bytes(i);
      }
    }
    return offsets;
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
// output batch of closed blocks is one append. A block's sketch entry is
// pushed once the block is published (at a region end or at the append
// that carries it) and its address filled in when the append lands, so
// Join() must run before the sketch is read or the writer destroyed.
//
// The region rule: EndRegion() closes the open block, so the entries of
// one region (a fold's rebuilt PIDX block or SIDX dirty region) never
// share a block with the next region's, but the closed blocks of
// consecutive regions share appends. A caller that carries old blocks
// over by reference pushes their sketch entries right after EndRegion(),
// between the regions' own.
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
    return FlushDue();
  }
  bool AddSidx(const SidxTuple& t) {
    packer_.AddSidx(t.skey, t.pkey, t.vaddr, t.vlen);
    return FlushDue();
  }

  // Ends a region: closes the open block and publishes the closed blocks'
  // sketch entries without issuing them. Returns true when Flush() is due.
  bool EndRegion() {
    packer_.Close();
    Publish();
    return FlushDue();
  }

  // Issues the closed blocks as one append (no-op when there are none).
  sim::Task<Status> Flush() {
    if (packer_.closed_bytes() == 0) co_return Status::Ok();
    Publish();
    std::string blob = packer_.TakeBytes();
    std::vector<SketchEntry>* sketch = sketch_;
    ChainWriter::Landed landed = [sketch, slots = std::exchange(unplaced_, {})](
                                     std::uint64_t addr) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        (*sketch)[slots[i]].block_addr = addr + i * kIndexBlockSize;
      }
    };
    co_return co_await out_.Append(std::move(blob), landed);
  }

  // Closes the open block and issues everything packed so far.
  sim::Task<Status> Close() {
    packer_.Close();
    return Flush();
  }

  sim::Task<Status> Join() { return out_.Join(); }

 private:
  bool FlushDue() const {
    return packer_.closed_bytes() >= dev_->config_.output_batch_bytes;
  }
  // Pushes the sketch entries of the blocks closed since the last call,
  // their addresses pending.
  void Publish() {
    for (wire::PackedBlock& b : packer_.TakeBlocks()) {
      unplaced_.push_back(sketch_->size());
      sketch_->push_back(SketchEntry{std::move(b.pivot), 0, kIndexBlockSize,
                                     std::move(b.spans)});
    }
  }

  Device* dev_;
  std::vector<SketchEntry>* sketch_;
  wire::IndexBlockPacker packer_;
  ChainWriter out_;
  std::vector<std::size_t> unplaced_;  // sketch slots of the next append
};

// Batches are consecutive blocks of `blocks`, cut before the block that
// would take one past 1 MiB (GatherValues' range cap), lowered to a fifth
// of a compaction's phase-2 key share on a small device. With `window`
// gathers in flight beside the batch being decoded and consumed, at most
// window + 1 fifths of that share are resident.
template <typename T, typename Decode, typename Consume>
sim::Task<Status> Device::StreamIndexBlocks(
    const std::vector<SketchEntry>& sketch,
    const std::vector<std::size_t>& blocks, std::uint32_t window,
    sim::Activity act, Decode decode, Consume consume) {
  const std::uint64_t batch_bytes =
      std::min<std::uint64_t>(MiB(1), config_.dram_bytes / 4 / 5);
  std::vector<std::size_t> starts;  // first block of each batch
  std::uint64_t fill = 0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const std::uint64_t len = sketch[blocks[k]].block_len;
    if (k == 0 || fill + len > batch_bytes) {
      starts.push_back(k);
      fill = 0;
    }
    fill += len;
  }
  starts.push_back(blocks.size());

  auto gather = [&](std::size_t b)
      -> sim::Task<Result<std::vector<std::string>>> {
    std::vector<ValueRef> refs;
    refs.reserve(starts[b + 1] - starts[b]);
    for (std::size_t k = starts[b]; k < starts[b + 1]; ++k) {
      refs.push_back(ValueRef{sketch[blocks[k]].block_addr,
                              sketch[blocks[k]].block_len});
    }
    return GatherValues(std::move(refs), act);
  };
  const std::uint32_t cores = std::max<std::uint32_t>(config_.soc_cores, 1);
  std::vector<T> decoded;
  auto process = [&](std::size_t b,
                     std::vector<std::string> batch) -> sim::Task<Status> {
    const std::size_t first = starts[b];
    decoded.clear();
    decoded.resize(batch.size());
    KVCSD_CO_RETURN_IF_ERROR(co_await sim::ParallelFor(
        sim_, batch.size(), cores, [&](std::size_t i) -> sim::Task<Status> {
          return decode(first + i, batch[i], &decoded[i]);
        }));
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      KVCSD_CO_RETURN_IF_ERROR(co_await consume(first + i, std::move(decoded[i])));
    }
    co_return Status::Ok();
  };
  co_return co_await sim::OrderedParallelFor<std::vector<std::string>>(
      sim_, starts.size() - 1, window, gather, process);
}

}  // namespace kvcsd::device
