// Deferred compaction and secondary-index construction (paper §V).
//
// Compaction sorts a keyspace in two steps, exactly as the paper
// describes: (1) sort the keys — an external merge sort whose run size is
// bounded by SoC DRAM, with intermediate runs kept in DRAM when the key log
// fits half the key sort's DRAM share and stored in temporarily allocated
// TEMP zone clusters otherwise; (2) use the sorted keys to sort the values
// — a DRAM-batched external permutation that gathers values with
// address-coalesced reads and streams them out in key order. The result is
// the SORTED_VALUES + PIDX clusters and an in-memory pivot sketch (one
// entry per 4 KB PIDX block) kept in the keyspace table.
//
// Both steps are pipelined across the SoC cores (DESIGN.md §7):
//
//  * Phase 1 fans run generation out over the KLOG zones with
//    sim::ParallelFor — each worker streams its zone in bounded chunks,
//    sorts, and closes its runs independently. The sort budget is split
//    into a FIXED number of shares (kRunGenShares), not `soc_cores`, so the run
//    layout — and therefore the merged output — is identical no matter
//    how many cores execute the fan-out; core count changes timing only.
//  * Phase 2 is four stages over bounded channels. The key merge splits
//    the key space at splitters picked from the runs' sparse indexes and
//    merges the key-range partitions at once, up to one per core, each a
//    loser-tree merge over run readers (merge.h) that
//    resolves last-writer-wins inside its range; a sequencer consumes the
//    partitions in key order and cuts value batches exactly where one
//    serial merge would. The gather stage reads each batch's values from
//    the VLOG; the write stage copies them into key order one append group
//    at a time, on the compaction's cores, and appends each group as its
//    copy is done; the index stage builds PIDX blocks, the bloom filter
//    and fused secondary-key tuples group by group as the appends land.
//    The merge of batch N+2 overlaps the gather of N+1 and the write and
//    indexing of N.
//
// Every output chain (TEMP runs, SORTED_VALUES, PIDX, SIDX) is written
// through one windowed in-order ChainWriter (chain_writer.h): up to
// gather_fanout appends in flight, each landing exactly where a serial
// writer would put it.
//
// Secondary indexes are built either separately (the paper's implemented
// design: a full scan of the compacted keyspace, extract, external sort)
// or fused into the compaction pass (the paper's §V future-work variant:
// keys are extracted while the values are already in DRAM during phase 2,
// skipping the re-read at the cost of extra DRAM pressure). Either way,
// tuples that fit the sort budget are sorted and packed in DRAM with no
// TEMP round trip. Fused per-spec sorts run concurrently in a TaskGroup.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "common/bloom.h"
#include "common/keys.h"
#include "kvcsd/chain_writer.h"
#include "kvcsd/device.h"
#include "kvcsd/klog_stream.h"
#include "kvcsd/merge.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// The phase-1 sort budget divides into this many fixed shares; each
// concurrent run-generation worker owns one share, and the worker count
// is min(soc_cores, kRunGenShares) so at most `run_budget` bytes of
// run-building state exist at once. A fixed divisor (rather than
// `soc_cores`) keeps the run layout independent of the core count.
constexpr std::uint64_t kRunGenShares = 4;

// Phase 2's key merge splits into about this many key-range partitions
// per SoC core: while the sequencer consumes one round of partitions, the
// next round merges.
constexpr std::uint64_t kMergePartitionsPerCore = 2;

// Awaits one metadata blob write, then records the blob's cluster as
// scratch (it is an output until the commit snapshot references it) and
// its ref in *out.
sim::Task<Status> StoreBlob(sim::Task<Result<BlobRef>> write, BlobRef* out,
                            std::vector<ClusterId>* scratch) {
  auto ref = co_await std::move(write);
  if (!ref.ok()) co_return ref.status();
  scratch->push_back(ref->cluster);
  *out = *ref;
  co_return Status::Ok();
}

}  // namespace

template <typename Traits>
sim::Task<Status> Device::SpillRun(std::vector<typename Traits::Entry>* entries,
                                   std::uint64_t sort_bytes,
                                   std::vector<ClusterId>* chain,
                                   std::vector<SpilledRun>* runs) {
  if (entries->empty()) co_return Status::Ok();
  co_await cpu_.ComputeSliced(sort_bytes, config_.costs.merge_bytes_per_sec,
                              sim::Activity::kCompact);
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) { return Traits::Less(a, b); });
  SpilledRun run;
  // Marks the index and serializes one entry at the end of `out`.
  auto add = [&run](std::string* out, const auto& e) {
    if (run.index.empty() ||
        run.bytes >= run.index.back().offset + kRunIndexStride) {
      run.index.push_back(RunMark{Traits::Key(e), run.bytes});
    }
    const std::size_t before = out->size();
    Traits::Append(out, e);
    run.bytes += out->size() - before;
  };
  if (chain == nullptr) {
    for (const auto& e : *entries) add(&run.resident, e);
    entries->clear();
    runs->push_back(std::move(run));
    co_return Status::Ok();
  }
  ChainWriter out(this, chain, ZoneType::kTemp, sim::Activity::kCompact);
  std::string chunk;
  chunk.reserve(config_.output_batch_bytes);
  auto flush = [&]() -> sim::Task<Status> {
    const std::size_t segment = run.segments.size();
    run.segments.emplace_back(0, static_cast<std::uint32_t>(chunk.size()));
    std::string data = std::move(chunk);
    chunk.clear();
    chunk.reserve(config_.output_batch_bytes);
    SpilledRun* landed = &run;
    co_return co_await out.Append(
        std::move(data), [landed, segment](std::uint64_t addr) {
          landed->segments[segment].first = addr;
        });
  };
  Status status = Status::Ok();
  for (const auto& e : *entries) {
    if (!chunk.empty() &&
        chunk.size() + Traits::MaxSize(e) > config_.output_batch_bytes) {
      status = co_await flush();
      if (!status.ok()) break;
    }
    add(&chunk, e);
  }
  if (status.ok() && !chunk.empty()) status = co_await flush();
  const Status joined = co_await out.Join();
  if (status.ok()) status = joined;
  entries->clear();
  KVCSD_CO_RETURN_IF_ERROR(status);
  ++compaction_stats_.runs_spilled;
  runs->push_back(std::move(run));
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 1: parallel run generation
// ---------------------------------------------------------------------------

// Runs and TEMP clusters produced from one KLOG zone. Each worker owns its
// output slot, so the fan-out shares no mutable state.
struct Device::RunGenOutput {
  std::vector<SpilledRun> runs;
  std::vector<ClusterId> temp_clusters;
};

sim::Task<Status> Device::GenerateZoneRuns(std::uint32_t zone,
                                           std::uint64_t run_budget,
                                           bool resident, RunGenOutput* out) {
  // One track per worker share keeps concurrent run-gen spans on separate
  // viewer rows (zone index mod the share count matches the fan-out width).
  sim::TraceSpan span(sim_,
                      config_.stats_prefix + "compact.gen." +
                          std::to_string(zone % kRunGenShares),
                      "run_gen");
  span.Arg("zone", static_cast<std::uint64_t>(zone));
  std::vector<KlogEntry> current;
  std::uint64_t current_bytes = 0;

  auto spill_current = [&]() -> sim::Task<Status> {
    // (key, seq): duplicate keys stay newest-last within the run, so the
    // merge's last-writer-wins pass sees every version of a key adjacently
    // in seq order.
    const std::uint64_t bytes = current_bytes;
    current_bytes = 0;
    co_return co_await SpillRun<KlogMergeTraits>(
        &current, bytes, resident ? nullptr : &out->temp_clusters,
        &out->runs);
  };

  KlogZoneStream stream(&ssd_, zone, config_.output_batch_bytes,
                        &compaction_stats_.bytes_read,
                        sim::Activity::kCompact);
  std::vector<KlogEntry> parsed;
  for (;;) {
    parsed.clear();
    auto more = co_await stream.NextBatch(&parsed);
    if (!more.ok()) co_return more.status();
    if (!*more) break;
    for (KlogEntry& e : parsed) {
      current_bytes += e.key.size() + 12;
      current.push_back(std::move(e));
      if (current_bytes >= run_budget) {
        KVCSD_CO_RETURN_IF_ERROR(co_await spill_current());
      }
    }
  }
  co_return co_await spill_current();
}

// ---------------------------------------------------------------------------
// SIDX external sort (shared by the separate and fused index builds)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::SidxSpill(SidxSortState* state) {
  const std::uint64_t bytes = state->current_bytes;
  state->current_bytes = 0;
  co_return co_await SpillRun<SidxMergeTraits>(
      &state->current, bytes, &state->temp_clusters, &state->runs);
}

sim::Task<Status> Device::SidxMergeToBlocks(
    SidxSortState* state, const nvme::SecondaryIndexSpec& spec,
    SecondaryIndex* out) {
  // A build that never spilled holds its only run in DRAM: it is sorted
  // there (charged as SpillRun charges a sort) and packed straight into
  // SIDX blocks, with no TEMP round trip. Packing one sorted run makes no
  // k-way comparisons, so it is charged as a buffer copy; a merge of
  // spilled runs is charged as merge-sort streaming.
  const bool resident = state->runs.empty();
  std::optional<RunMerger<SidxMergeTraits>> merger;
  if (resident) {
    if (!state->current.empty()) {
      co_await cpu_.ComputeSliced(state->current_bytes,
                                  config_.costs.merge_bytes_per_sec,
                                  sim::Activity::kCompact);
      std::sort(state->current.begin(), state->current.end(), SidxOrder);
    }
  } else {
    KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));
    compaction_stats_.max_merge_fanin = std::max<std::uint64_t>(
        compaction_stats_.max_merge_fanin, state->runs.size());
    merger.emplace(sim_, &ssd_);
    KVCSD_CO_RETURN_IF_ERROR(
        co_await merger->Init(state->runs, &compaction_stats_.bytes_read));
  }
  stats().counter("device.sidx.runs_spilled").Add(state->runs.size());
  const double pack_rate = resident ? config_.costs.memcpy_bytes_per_sec
                                    : config_.costs.merge_bytes_per_sec;

  SecondaryIndex& sidx = *out;
  sidx.spec = spec;
  IndexWriter blocks(this, ZoneType::kSidx, &sidx.sidx_clusters, &sidx.sketch,
                     sim::Activity::kCompact);
  std::uint64_t packed = 0;
  // Packs the next tuple in SIDX order, charging CPU per MiB packed.
  auto pack = [&](const SidxTuple& t) -> sim::Task<Status> {
    packed += t.skey.size() + t.pkey.size() + 12;
    if (packed >= MiB(1)) {
      co_await cpu_.ComputeSliced(packed, pack_rate, sim::Activity::kCompact);
      packed = 0;
    }
    ++sidx.entries;
    if (blocks.AddSidx(t)) co_return co_await blocks.Flush();
    co_return Status::Ok();
  };
  Status status = Status::Ok();
  if (resident) {
    for (const SidxTuple& t : state->current) {
      status = co_await pack(t);
      if (!status.ok()) break;
    }
    state->current.clear();
    state->current_bytes = 0;
  }
  while (merger.has_value() && status.ok() && !merger->Empty()) {
    SidxTuple t;
    status = co_await merger->Pop(&t);
    if (status.ok()) status = co_await pack(t);
  }
  if (status.ok()) {
    co_await cpu_.ComputeSliced(packed, pack_rate, sim::Activity::kCompact);
    status = co_await blocks.Close();
  }
  const Status joined = co_await blocks.Join();
  if (status.ok()) status = joined;
  KVCSD_CO_RETURN_IF_ERROR(status);

  // Best-effort: the runs are merged, and a TEMP cluster a failed reset
  // leaves behind is unreferenced, so recovery reclaims it.
  co_await zone_manager_.ReleaseBestEffort(std::move(state->temp_clusters));
  state->temp_clusters.clear();
  state->runs.clear();
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 2: merge -> gather + value write -> index build
// ---------------------------------------------------------------------------

sim::Task<Status> Device::WriteValues(ValueBatch* b,
                                      std::vector<ClusterId>* chain,
                                      sim::Activity act,
                                      std::uint32_t copy_cores,
                                      const GroupLanded& landed) {
  ChainWriter out(this, chain, ZoneType::kSortedValues, act);
  // A zero-length value that no append carries points at 0.
  for (KlogEntry& e : b->entries) e.value_addr = 0;
  const std::size_t groups = b->groups();
  const std::vector<std::uint64_t> offsets =
      b->GroupOffsets([b](std::size_t i) { return b->values[i].size(); });
  // Group g's values in key order; its copy is charged as its part of
  // one copy of the whole batch.
  auto copy = [&](std::size_t g) -> sim::Task<Result<std::string>> {
    if (copy_cores > 0) {
      co_await cpu_.ComputeSliced(offsets[g + 1] - offsets[g],
                                  config_.costs.memcpy_bytes_per_sec, act,
                                  offsets[g]);
    }
    std::string data;
    data.reserve(offsets[g + 1] - offsets[g]);
    for (std::size_t i = b->GroupStart(g); i < b->GroupStart(g + 1); ++i) {
      data += b->values[i];
    }
    co_return data;
  };
  // Issues group g's append; its entries' addresses are filled in when it
  // lands.
  auto append = [&](std::size_t g, std::string data) -> sim::Task<Status> {
    if (data.empty()) {
      if (landed) landed(g);
      co_return Status::Ok();
    }
    const std::size_t first = b->GroupStart(g);
    const std::size_t upto = b->GroupStart(g + 1);
    ChainWriter::Landed placed = [b, first, upto, g,
                                  &landed](std::uint64_t addr) {
      for (std::size_t i = first; i < upto; ++i) {
        b->entries[i].value_addr = addr;
        addr += b->values[i].size();
      }
      if (landed) landed(g);
    };
    co_return co_await out.Append(std::move(data), placed);
  };
  Status status = Status::Ok();
  if (copy_cores > 0) {
    status = co_await sim::OrderedParallelFor<std::string>(
        sim_, groups, copy_cores, copy, append);
  } else {
    for (std::size_t g = 0; g < groups && status.ok(); ++g) {
      auto data = co_await copy(g);
      status = co_await append(g, std::move(*data));
    }
  }
  const Status joined = co_await out.Join();
  co_return status.ok() ? joined : status;
}

struct Device::Phase2Pipeline {
  // A value batch on its way through phase 2, with its write's progress:
  // the index stage follows the write append group by append group.
  struct Batch : ValueBatch {
    Batch(sim::Simulation* sim, std::uint64_t limit)
        : ValueBatch(limit), progress(sim) {}

    // Waits for group g's append to land; false when the write ended
    // without it (a failed write wakes every waiter).
    sim::Task<bool> Landed(std::size_t g) {
      while (!landed[g]) {
        if (written) co_return false;
        progress.Reset();
        co_await progress.Wait();
      }
      co_return true;
    }
    // Waits until the write stage is done with the batch.
    sim::Task<void> Written() {
      while (!written) {
        progress.Reset();
        co_await progress.Wait();
      }
    }

    std::vector<bool> landed;  // per append group
    bool written = false;      // the write stage is done with it
    sim::Event progress;       // set at every landing and once written
  };

  Phase2Pipeline(Device* device, std::uint32_t share)
      : dev(device),
        cores(share),
        merged(device->sim_, 1),
        gathered(device->sim_, 1),
        written(device->sim_, 2),
        index_slots(device->sim_, 2) {}

  // Closes one stage's work on one batch: a span on the stage's own
  // compaction track (stages overlap, so they cannot share one) and a
  // sample of device.compact.phase2_<stage>_ns.
  void Record(const char* stage, const ValueBatch& batch, Tick start) {
    const Tick now = dev->sim_->Now();
    dev->stats()
        .histogram(std::string("device.compact.phase2_") + stage + "_ns")
        .Record(now - start);
    sim::Tracer& tracer = dev->sim_->tracer();
    if (!tracer.enabled()) return;
    tracer.CompleteSpan(
        tracer.Track(dev->config_.stats_prefix + "compact." + stage),
        std::string("phase2.") + stage, start, now,
        {{"batch", std::to_string(batch.index)},
         {"entries", std::to_string(batch.entries.size())}});
  }

  Device* dev;
  // This compaction's share of the SoC cores: the merge's partitions, the
  // write's copies and the index's charges each run on up to this many.
  std::uint32_t cores;
  sim::BoundedChannel<std::unique_ptr<Batch>> merged;    // merge -> gather
  sim::BoundedChannel<std::unique_ptr<Batch>> gathered;  // gather -> write
  sim::BoundedChannel<std::unique_ptr<Batch>> written;   // write -> index
  // At most two batches between the write and the index stage: the one
  // being written, indexed as its appends land, and the one before it,
  // whose last groups may still be indexed. The write stage takes a slot
  // before it takes a batch; the index stage frees it with the batch.
  sim::Semaphore index_slots;
  const std::vector<nvme::SecondaryIndexSpec>* specs = nullptr;
  std::vector<SidxSortState>* sidx_states = nullptr;
  // When non-null, every merged key is also added to the keyspace's bloom
  // filter here — the one moment all primary keys stream through DRAM in
  // order, so the filter build costs no extra I/O (DESIGN.md §10).
  BloomFilterBuilder* bloom = nullptr;
  std::vector<ClusterId> value_clusters;
  std::vector<SketchEntry> sketch;
  std::vector<ClusterId> pidx_clusters;
  std::uint64_t entries_total = 0;
  // Set when any stage fails: upstream stages stop producing, downstream
  // ones drain their input without working on it.
  bool failed = false;
};

sim::Task<Result<std::vector<KlogEntry>>> Device::MergePartition(
    const std::vector<SpilledRun>& runs,
    const std::vector<std::string>& splitters, std::size_t partition,
    const bool* stop) {
  KeyRange range;
  if (partition > 0) range.lo = splitters[partition - 1];
  if (partition < splitters.size()) range.hi = splitters[partition];
  RunMerger<KlogMergeTraits> merger(sim_, &ssd_, std::move(range));
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(runs, &compaction_stats_.bytes_read));

  std::vector<KlogEntry> live;
  std::uint64_t merged_bytes = 0;
  // Last-writer-wins: the merge yields every version of a key adjacently
  // in ascending mutation-seq order (KlogMergeTraits), so only the final
  // entry of an equal-key group is live. `pending` holds the group's
  // newest version so far; it is kept when the key changes — unless it
  // is a tombstone, which simply vanishes along with every older version
  // it shadowed.
  std::optional<KlogEntry> pending;
  while (!merger.Empty()) {
    if (*stop) co_return Status::Aborted("compaction pipeline failed");
    KlogEntry entry;
    KVCSD_CO_RETURN_IF_ERROR(co_await merger.Pop(&entry));
    merged_bytes += entry.key.size() + 12;
    if (merged_bytes >= MiB(1)) {
      co_await cpu_.ComputeSliced(merged_bytes,
                                  config_.costs.merge_bytes_per_sec,
                                  sim::Activity::kCompact);
      merged_bytes = 0;
    }
    if (pending.has_value() && pending->key != entry.key &&
        !pending->tombstone) {
      live.push_back(std::move(*pending));
    }
    pending = std::move(entry);
  }
  if (pending.has_value() && !pending->tombstone) {
    live.push_back(std::move(*pending));
  }
  co_await cpu_.ComputeSliced(merged_bytes, config_.costs.merge_bytes_per_sec,
                              sim::Activity::kCompact);
  co_return std::move(live);
}

sim::Task<Status> Device::GatherStage(Phase2Pipeline* pipe) {
  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->merged.Pop();
    if (!item.has_value()) break;
    // Drain after a failure: the merge must always wake.
    if (!result.ok() || pipe->failed) continue;
    Phase2Pipeline::Batch& b = **item;
    const Tick start = sim_->Now();
    std::vector<ValueRef> refs;
    refs.reserve(b.entries.size());
    for (const KlogEntry& e : b.entries) {
      refs.push_back(ValueRef{e.value_addr, e.value_len});
    }
    auto values =
        co_await GatherValues(std::move(refs), sim::Activity::kCompact);
    if (!values.ok()) {
      result = values.status();
      pipe->failed = true;
      continue;
    }
    compaction_stats_.bytes_read += b.value_bytes;
    b.values = std::move(*values);
    pipe->Record("gather", b, start);
    co_await pipe->gathered.Push(std::move(*item));
  }
  pipe->gathered.Close();
  co_return result;
}

sim::Task<Status> Device::ValueWriteStage(Phase2Pipeline* pipe) {
  Status result = Status::Ok();
  for (;;) {
    co_await pipe->index_slots.Acquire();
    auto item = co_await pipe->gathered.Pop();
    // Drain after a failure: the gather stage must always wake.
    if (!item.has_value() || !result.ok() || pipe->failed) {
      pipe->index_slots.Release();
      if (!item.has_value()) break;
      continue;
    }
    Phase2Pipeline::Batch* b = item->get();
    b->landed.assign(b->groups(), false);
    const Tick start = sim_->Now();
    // The index stage takes the batch now and follows its appends; the
    // slot taken above keeps this push from waiting.
    co_await pipe->written.Push(std::move(*item));
    const GroupLanded landed = [b](std::size_t g) {
      b->landed[g] = true;
      b->progress.Set();
    };
    result = co_await WriteValues(b, &pipe->value_clusters,
                                  sim::Activity::kCompact, pipe->cores,
                                  landed);
    if (result.ok()) {
      pipe->Record("write", *b, start);
    } else {
      pipe->failed = true;
    }
    // From here on the index stage may free the batch.
    b->written = true;
    b->progress.Set();
  }
  pipe->written.Close();
  co_return result;
}

sim::Task<Status> Device::IndexBuildStage(Phase2Pipeline* pipe) {
  IndexWriter pidx(this, ZoneType::kPidx, &pipe->pidx_clusters, &pipe->sketch,
                   sim::Activity::kCompact);
  // Indexes a batch group by group as the groups land. A group's SoC
  // charge (hashing its keys into the bloom filter, about one checksum
  // pass; fused secondary-key extraction over its values, which sit in
  // DRAM anyway, so no keyspace re-read) is its part of one charge over
  // the batch, and up to `cores` groups are charged at once; PIDX
  // packing, the filter and the SIDX tuples take the groups in key order.
  // *start is set when the first group has landed: the batch's indexing
  // starts there.
  auto process = [&](Phase2Pipeline::Batch* b,
                     Tick* start) -> sim::Task<Status> {
    const std::vector<std::uint64_t> key_offsets = b->GroupOffsets(
        [b](std::size_t i) { return b->entries[i].key.size(); });
    const std::vector<std::uint64_t> value_offsets =
        b->GroupOffsets([b](std::size_t i) { return b->values[i].size(); });
    auto charge = [&](std::size_t g) -> sim::Task<Result<bool>> {
      const bool landed = co_await b->Landed(g);
      if (!landed) co_return Status::Aborted("compaction pipeline failed");
      if (g == 0) *start = sim_->Now();
      if (!pipe->specs->empty()) {
        co_await cpu_.ComputeSliced(value_offsets[g + 1] - value_offsets[g],
                                    config_.costs.extract_bytes_per_sec,
                                    sim::Activity::kCompact, value_offsets[g]);
      }
      if (pipe->bloom != nullptr) {
        co_await cpu_.ComputeSliced(key_offsets[g + 1] - key_offsets[g],
                                    config_.costs.checksum_bytes_per_sec,
                                    sim::Activity::kCompact, key_offsets[g]);
      }
      co_return true;
    };
    auto index = [&](std::size_t g, bool) -> sim::Task<Status> {
      for (std::size_t i = b->GroupStart(g); i < b->GroupStart(g + 1); ++i) {
        const KlogEntry& e = b->entries[i];
        if (pidx.AddPidx(e.key, e.value_addr, e.value_len)) {
          KVCSD_CO_RETURN_IF_ERROR(co_await pidx.Flush());
        }
        if (pipe->bloom != nullptr) pipe->bloom->AddKey(Slice(e.key));
        for (std::size_t spec_index = 0; spec_index < pipe->specs->size();
             ++spec_index) {
          auto skey = nvme::ExtractSecondaryKey(Slice(b->values[i]),
                                                (*pipe->specs)[spec_index]);
          if (!skey.ok()) co_return skey.status();
          SidxSortState& state = (*pipe->sidx_states)[spec_index];
          SidxTuple tuple{std::move(*skey), e.key, e.value_addr, e.value_len};
          if (state.Add(std::move(tuple))) {
            KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(&state));
          }
        }
      }
      co_return Status::Ok();
    };
    KVCSD_CO_RETURN_IF_ERROR(co_await sim::OrderedParallelFor<bool>(
        sim_, b->groups(), pipe->cores, charge, index));
    pipe->entries_total += b->entries.size();
    co_return Status::Ok();
  };

  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->written.Pop();
    if (!item.has_value()) break;
    Phase2Pipeline::Batch* b = item->get();
    // Drain after a failure: the write stage must always wake.
    if (result.ok() && !pipe->failed) {
      Tick start = sim_->Now();
      result = co_await process(b, &start);
      if (result.ok()) {
        pipe->Record("index", *b, start);
      } else {
        pipe->failed = true;
      }
    }
    co_await b->Written();
    pipe->index_slots.Release();
  }
  if (result.ok()) result = co_await pidx.Close();
  const Status joined = co_await pidx.Join();
  if (result.ok()) result = joined;
  if (!result.ok()) pipe->failed = true;
  co_return result;
}

// ---------------------------------------------------------------------------
// Compaction (optionally fused with secondary-index construction)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::BeginCompaction(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::uint64_t trigger_cmd_id) {
  ks->state = ks->state == KeyspaceState::kCompacted
                  ? KeyspaceState::kRecompacting
                  : KeyspaceState::kCompacting;
  ks->runtime.compaction_done.Reset();
  ks->runtime.compaction_status = Status::Ok();
  if (sim_->tracer().enabled() && trigger_cmd_id != 0) {
    // Second flow hop: from the command's exec span to the async
    // compaction span it starts.
    sim_->tracer().FlowBegin(sim_->tracer().Track(trk_device_), "compact",
                             trigger_cmd_id, sim_->Now());
  }
  return CompactKeyspace(ks, std::move(fused_specs), trigger_cmd_id);
}

void Device::SpawnCompaction(Keyspace* ks,
                             std::vector<nvme::SecondaryIndexSpec> fused_specs,
                             std::uint64_t trigger_cmd_id) {
  sim::Task<Status> job =
      BeginCompaction(ks, std::move(fused_specs), trigger_cmd_id);
  sim_->Spawn([](sim::Task<Status> task) -> sim::Task<void> {
    Status s = co_await std::move(task);
    (void)s;  // failure rolls the keyspace back; surfaced via kCompactWait
  }(std::move(job)));
}

// The completion event fires on every exit path — a waiter must never
// hang on a failed compaction.
sim::Task<Status> Device::CompactKeyspace(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::uint64_t trigger_cmd_id) {
  const bool fold = ks->state == KeyspaceState::kRecompacting;
  const Tick job_start = sim_->Now();
  sim::TraceSpan span(sim_, trk_compaction_, fold ? "recompact" : "compact");
  span.Arg("keyspace", ks->name);
  if (fold) {
    span.Arg("delta_keys", static_cast<std::uint64_t>(ks->delta_index.size()));
  } else {
    span.Arg("fused_indexes", static_cast<std::uint64_t>(fused_specs.size()));
  }
  if (trigger_cmd_id != 0) {
    span.Arg("trigger_cmd_id", trigger_cmd_id);
    if (sim_->tracer().enabled()) {
      // Closes the flow opened by the kCompact command's exec span: the
      // viewer draws client submit -> device exec -> this compaction.
      sim_->tracer().FlowEnd(sim_->tracer().Track(trk_compaction_), "compact",
                             trigger_cmd_id, sim_->Now());
    }
  }
  // Pinned like a command: the commit sets COMPACTED before its persist
  // returns, so from then on only the pin makes a drop wait for this job.
  ++ks->inflight;
  ++compactions_running_;
  std::vector<ClusterId> scratch;
  Result<JobOutput> out = Status::Aborted("compaction job did not run");
  if (fold) {
    out = co_await RunRecompaction(ks, &scratch);
  } else {
    out = co_await RunCompaction(ks, std::move(fused_specs), &scratch);
  }
  Status result = out.status();
  if (result.ok()) {
    const Tick commit_start = sim_->Now();
    // A compaction's TEMP runs are dead weight: their resets run under
    // the whole commit (blob writes, persist, post-commit release), so
    // the job pays one reset latency, not two in a row. They start with
    // the commit, so their zones return to the free pool one reset
    // later, before the old layout's; in the post-commit batch they would
    // return a persist later and move where other keyspaces' clusters
    // land. Best-effort: no snapshot lists them (ZoneManager::Unlist),
    // so recovery resets any a failed reset or a power cut leaves behind.
    sim::TaskGroup temp(sim_);
    if (!out->temp.empty()) {
      temp.Spawn([](ZoneManager* zones,
                    std::vector<ClusterId> ids) -> sim::Task<Status> {
        co_await zones->ReleaseBestEffort(std::move(ids));
        co_return Status::Ok();
      }(&zone_manager_, std::move(out->temp)));
    }
    result = co_await Commit(ks, std::move(*out), &scratch);
    (void)co_await temp.Wait();
    if (result.ok() && !fold) {
      // The phases are contiguous: phase 1 starts with the job, phase 2
      // ends where the commit starts.
      const Tick commit = sim_->Now() - commit_start;
      compaction_stats_.commit_ticks += commit;
      compaction_stats_.total_ticks += sim_->Now() - job_start;
      stats().histogram("device.compact.commit_ns").Record(commit);
    }
  }
  --compactions_running_;
  if (!result.ok()) {
    // Best-effort: no snapshot references scratch, so whatever a failed
    // reset (or a power cut) leaves behind, recovery reclaims.
    co_await zone_manager_.ReleaseBestEffort(std::move(scratch));
    ks->RollBackCompaction();
    if (faults_ == nullptr || !faults_->crashed()) {
      // Make the rollback durable so a later crash cannot resurrect the
      // (RE)COMPACTING state. Best-effort: the snapshot still on flash
      // also rolls back correctly at recovery, so a failure is counted
      // (registered on the first one) and logged, not returned.
      const Status persisted = co_await keyspace_manager_.Persist();
      if (!persisted.ok()) {
        stats().counter("device.meta.rollback_persist_failed").Increment();
        sim_->log().Warn("meta", config_.stats_prefix +
                                     "rollback persist failed, recovery "
                                     "rolls back: " +
                                     persisted.ToString());
      }
    }
  }
  ks->runtime.compaction_status = result;
  ks->runtime.compaction_done.Set();
  co_await Unpin(ks);
  co_return result;
}

// The snapshot is written while the old layout's clusters are still
// allocated, so whichever snapshot recovery loads, every cluster it
// references exists: the stale side only ever leaks clusters (reclaimed as
// unreferenced), never dangles.
sim::Task<Status> Device::Commit(Keyspace* ks, JobOutput out,
                                 std::vector<ClusterId>* scratch) {
  const bool fold = ks->state == KeyspaceState::kRecompacting;
  const std::string job = fold ? "recompact" : "compact";
  const sim::Activity act =
      fold ? sim::Activity::kRecompact : sim::Activity::kCompact;
  KeyspaceLayout& next = out.next;

  // The layout rule: each index chain keeps the old clusters a block of
  // its new sketch still sits in, followed by the job's fresh ones, and
  // every old SORTED_VALUES cluster stays (kept and rebuilt PIDX blocks
  // still point into the run). The rest of the old layout dies in the
  // release below. Fresh clusters never alias old zones. A compaction's
  // keyspace is WRITABLE and owns no run or index, so its layout is its
  // fresh outputs.
  const std::uint64_t zone_size = ssd_.zone_size();
  auto keep = [&](const std::vector<ClusterId>& old_chain,
                  const std::vector<SketchEntry>& sketch,
                  std::vector<ClusterId>* chain) {
    if (old_chain.empty()) return;
    std::set<std::uint64_t> zones;
    for (const SketchEntry& e : sketch) zones.insert(e.block_addr / zone_size);
    std::vector<ClusterId> kept;
    for (ClusterId id : old_chain) {
      const std::vector<std::uint32_t>& own = zone_manager_.cluster_zones(id);
      if (std::any_of(own.begin(), own.end(),
                      [&](std::uint32_t z) { return zones.contains(z); })) {
        kept.push_back(id);
      }
    }
    chain->insert(chain->begin(), kept.begin(), kept.end());
  };
  keep(ks->pidx_clusters, next.pidx_sketch, &next.pidx_clusters);
  next.sorted_value_clusters.insert(next.sorted_value_clusters.begin(),
                                    ks->sorted_value_clusters.begin(),
                                    ks->sorted_value_clusters.end());
  for (auto& [name, sidx] : next.secondary_indexes) {
    auto old = ks->secondary_indexes.find(name);
    if (old == ks->secondary_indexes.end()) continue;
    keep(old->second.sidx_clusters, sidx.sketch, &sidx.sidx_clusters);
  }

  // Out-of-line metadata: a fresh blob for each index that changed,
  // written ahead of the snapshot that references it, as scratch; the
  // blobs they supersede die in the release after the commit. Both jobs
  // change the PIDX sketch. The bloom filter shares its blob, so recovery
  // restores both or neither.
  {
    sim::TaskGroup blobs(sim_);
    blobs.Spawn(StoreBlob(keyspace_manager_.WritePidxBlob(
                              next.pidx_sketch, next.pidx_bloom, act),
                          &next.pidx_blob, scratch));
    for (auto& [name, sidx] : next.secondary_indexes) {
      if (sidx.sketch_blob.cluster != 0) continue;  // every block retained
      blobs.Spawn(StoreBlob(keyspace_manager_.WriteSidxBlob(sidx.sketch, act),
                            &sidx.sketch_blob, scratch));
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await blobs.Wait());
  }

  // Drain in-flight readers: new queries block in AwaitQueryable while
  // the state is RECOMPACTING, and the swap below replaces clusters and
  // sketches a still-running scan may be dereferencing. Only a fold can
  // have readers, and only its commit has a span, which ends at the
  // persist so the release gets a sibling span instead of nesting.
  std::optional<sim::TraceSpan> commit_span;
  if (fold) commit_span.emplace(sim_, trk_compaction_, "recompact.commit");
  while (ks->active_readers > 0) {
    sim::Event& idle = ks->runtime.readers_idle;
    idle.Reset();
    if (ks->active_readers == 0) break;
    co_await idle.Wait();
  }
  if (CrashPoint((job + ".before_commit").c_str())) {
    co_return Status::IoError("simulated power loss before " + job +
                              " commit");
  }

  // The commit point. From here on `next` holds the superseded layout.
  const KeyspaceState compacting = ks->state;
  std::swap(static_cast<KeyspaceLayout&>(*ks), next);
  ks->state = KeyspaceState::kCompacted;
  const Status persisted = co_await keyspace_manager_.Persist();
  if (!persisted.ok()) {
    std::swap(static_cast<KeyspaceLayout&>(*ks), next);
    ks->state = compacting;
    co_return persisted;
  }
  scratch->clear();
  // Cached blocks of this keyspace id may belong to the old layout: a
  // fold rewrites blocks, and a compaction can follow a rolled-back one.
  index_cache_.EraseKeyspace(ks->id);
  commit_span.reset();
  stats().counter("device." + job + ".done").Increment();
  if (out.committed) out.committed();

  // Past the commit point the job HAS happened; a crash here loses
  // nothing (recovery reclaims what the old layout alone referenced as
  // unreferenced clusters). Best-effort for the same reason.
  (void)CrashPoint((job + ".after_commit").c_str());
  sim::TraceSpan release(sim_, trk_compaction_, job + ".release");
  const std::vector<ClusterId> live = ks->Clusters();
  const std::set<ClusterId> kept(live.begin(), live.end());
  std::vector<ClusterId> dead;
  for (ClusterId id : next.Clusters()) {
    if (!kept.contains(id)) dead.push_back(id);
  }
  co_await zone_manager_.ReleaseBestEffort(std::move(dead));
  co_return Status::Ok();
}

sim::Task<Result<Device::JobOutput>> Device::RunCompaction(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::vector<ClusterId>* scratch) {
  // ---- Phase 1: durable logs, then parallel run generation ----
  const Tick phase1_start = sim_->Now();
  // Compaction must observe complete KLOG/VLOG logs.
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks));

  // Make the COMPACTING state and the final log extents durable before
  // any output is written: recovery must know to roll this keyspace back
  // and which clusters hold its logs.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());

  // The DRAM budget splits between the key sort and any fused index sorts
  // (the paper's stated cost of consolidating index construction).
  const std::uint64_t budget_shares = 1 + fused_specs.size();
  const std::uint64_t run_budget =
      config_.EffectiveSortRunBytes() / budget_shares;
  // The key sort's share of SoC DRAM, which phase 2's value batches share.
  // A key log that fits half of it (and of the sort budget) can keep its
  // sorted runs in DRAM: phase 1 writes, and phase 2 reads back, no TEMP
  // byte. The runs are cut and merged exactly as spilled ones would be.
  // Resident runs shrink the value batches (see batch_budget below), and
  // every batch gathers from across the VLOG, so the runs stay resident
  // only if that takes no more batches; the VLOG's bytes stand in for the
  // live value bytes, which only the merge knows.
  const std::uint64_t key_share = config_.dram_bytes / 4 / budget_shares;
  std::uint64_t klog_bytes = 0;
  for (ClusterId cluster : ks->klog_clusters) {
    klog_bytes += zone_manager_.ClusterBytes(cluster);
  }
  std::uint64_t vlog_bytes = 0;
  for (ClusterId cluster : ks->vlog_clusters) {
    vlog_bytes += zone_manager_.ClusterBytes(cluster);
  }
  // Up to six batches can be DRAM-resident at once: one being merged, one
  // queued for the gather stage, one being gathered, one queued for the
  // write stage, one being written (and indexed as its appends land), and
  // the one before it, whose last append groups may still be indexed. So
  // each takes a sixth of the key share, or of what resident runs leave
  // of it.
  auto budget_beside = [&](std::uint64_t resident_bytes) {
    return std::max<std::uint64_t>((key_share - resident_bytes) / 6,
                                   KiB(64));
  };
  auto batches_of = [&](std::uint64_t budget) {
    return (vlog_bytes + budget - 1) / budget;
  };
  const bool resident =
      klog_bytes <= std::min(run_budget, key_share) / 2 &&
      batches_of(budget_beside(klog_bytes)) == batches_of(budget_beside(0));

  std::vector<SidxSortState> fused_states(fused_specs.size());
  for (auto& state : fused_states) state.run_budget = run_budget;

  std::vector<std::uint32_t> klog_zones;
  for (ClusterId cluster : ks->klog_clusters) {
    for (std::uint32_t zone : zone_manager_.cluster_zones(cluster)) {
      klog_zones.push_back(zone);
    }
  }

  const std::uint64_t gen_budget =
      std::max<std::uint64_t>(run_budget / kRunGenShares, KiB(4));
  const std::uint32_t gen_workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint32_t>(config_.soc_cores, 1),
                              kRunGenShares));

  std::vector<RunGenOutput> gen_outputs(klog_zones.size());
  auto gen_fn = [&](std::size_t i) -> sim::Task<Status> {
    return GenerateZoneRuns(klog_zones[i], gen_budget, resident,
                            &gen_outputs[i]);
  };
  // ParallelFor joins ALL workers before returning, so every allocated
  // TEMP cluster is visible in gen_outputs even when a worker failed —
  // record them in `scratch` before acting on the status.
  const Status gen_status =
      co_await sim::ParallelFor(sim_, klog_zones.size(), gen_workers, gen_fn);

  // Concatenate in zone order — NOT completion order — so run indexes
  // (the merge tie-break) are reproducible across core counts.
  std::vector<SpilledRun> runs;
  std::vector<ClusterId> temp_clusters;
  for (RunGenOutput& out : gen_outputs) {
    for (SpilledRun& run : out.runs) runs.push_back(std::move(run));
    temp_clusters.insert(temp_clusters.end(), out.temp_clusters.begin(),
                         out.temp_clusters.end());
  }
  scratch->insert(scratch->end(), temp_clusters.begin(), temp_clusters.end());
  KVCSD_CO_RETURN_IF_ERROR(gen_status);
  if (CrashPoint("compact.after_phase1")) {
    co_return Status::IoError("simulated power loss after run generation");
  }
  const Tick phase2_start = sim_->Now();
  compaction_stats_.phase1_ticks += phase2_start - phase1_start;
  stats()
      .histogram("device.compact.phase1_ns")
      .Record(phase2_start - phase1_start);
  if (sim_->tracer().enabled()) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_compaction_), "phase1.run_gen", phase1_start,
        sim_->Now(),
        {{"keyspace", ks->name}, {"runs", std::to_string(runs.size())}});
  }

  // ---- Phase 2: merge -> gather -> value write -> index build ----
  compaction_stats_.max_merge_fanin =
      std::max<std::uint64_t>(compaction_stats_.max_merge_fanin, runs.size());

  // A batch ends at the first SORTED_VALUES append boundary past its
  // budget (at most one append later), so the appends, and the address of
  // every value, are those of a single batch: the budget decides when
  // values are written, never where.
  const std::uint64_t batch_budget =
      budget_beside(resident ? klog_bytes : 0);

  // `cores` is this compaction's share of the SoC (compactions of several
  // keyspaces already run side by side). The key merge runs as key-range
  // partitions, consumed in key order by the sequencer below, and at most
  // `cores` partitions merge at once. The batch being merged holds keys
  // only (the gather stage reads its values), so its sixth of the key
  // share holds the merged entries waiting ahead of the sequencer: at
  // most `cores` partitions in flight plus the one being consumed, each of
  // about a (cores + 1)-th of the batch budget. With more than one core,
  // the runs also split into kMergePartitionsPerCore partitions per core;
  // with one, partitions only keep to the DRAM bound.
  const auto cores = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      config_.soc_cores / std::max<std::uint64_t>(compactions_running_, 1),
      1));

  std::optional<BloomFilterBuilder> bloom;
  if (config_.bloom_bits_per_key > 0) {
    bloom.emplace(static_cast<int>(config_.bloom_bits_per_key));
  }
  Phase2Pipeline pipe(this, cores);
  pipe.specs = &fused_specs;
  pipe.sidx_states = &fused_states;
  pipe.bloom = bloom.has_value() ? &*bloom : nullptr;
  sim::TaskGroup stages(sim_);
  stages.Spawn(GatherStage(&pipe));
  stages.Spawn(ValueWriteStage(&pipe));
  stages.Spawn(IndexBuildStage(&pipe));

  std::uint64_t run_bytes = 0;
  for (const SpilledRun& run : runs) run_bytes += run.bytes;
  std::uint64_t target = batch_budget / (cores + 1);
  if (cores > 1) {
    target = std::min<std::uint64_t>(
        target, run_bytes / (kMergePartitionsPerCore * cores) + 1);
  }
  const std::vector<std::string> splitters = PickSplitters(runs, target);
  stats().counter("device.compact.merge_partitions")
      .Add(splitters.size() + 1);

  // The sequencer: cuts the partitions' live entries, in key order, into
  // value batches exactly as one serial merge would.
  auto batch = std::make_unique<Phase2Pipeline::Batch>(
      sim_, config_.output_batch_bytes);
  Tick batch_start = sim_->Now();
  // Hands the open batch to the gather stage and opens the next one.
  auto ship = [&]() -> sim::Task<void> {
    pipe.Record("merge", *batch, batch_start);
    const std::uint64_t next = batch->index + 1;
    co_await pipe.merged.Push(std::move(batch));
    batch = std::make_unique<Phase2Pipeline::Batch>(
        sim_, config_.output_batch_bytes);
    batch->index = next;
    batch_start = sim_->Now();
  };
  auto merge_partition = [&](std::size_t partition) {
    return MergePartition(runs, splitters, partition, &pipe.failed);
  };
  auto sequence = [&](std::size_t,
                      std::vector<KlogEntry> live) -> sim::Task<Status> {
    for (KlogEntry& e : live) {
      if (pipe.failed) co_return Status::Aborted("compaction pipeline failed");
      // A full batch ends where `e` starts an append; an empty one
      // always takes it.
      while (!batch->Admit(e, batch_budget)) co_await ship();
    }
    co_return Status::Ok();
  };
  Status merge_status = co_await sim::OrderedParallelFor<std::vector<KlogEntry>>(
      sim_, splitters.size() + 1, cores, merge_partition, sequence);
  if (merge_status.ok() && !pipe.failed && !batch->entries.empty()) {
    co_await ship();
  }
  // Always close + join: each stage must see end-of-stream even on the
  // error paths, or a neighbour would wait forever. With every stage
  // joined, every cluster the pipeline allocated is visible — record them
  // before acting on any status.
  if (!merge_status.ok()) pipe.failed = true;
  pipe.merged.Close();
  const Status stage_status = co_await stages.Wait();
  scratch->insert(scratch->end(), pipe.value_clusters.begin(),
                  pipe.value_clusters.end());
  scratch->insert(scratch->end(), pipe.pidx_clusters.begin(),
                  pipe.pidx_clusters.end());
  for (const SidxSortState& state : fused_states) {
    scratch->insert(scratch->end(), state.temp_clusters.begin(),
                    state.temp_clusters.end());
  }
  // A failed stage stops the merge (Aborted): its own error comes first.
  KVCSD_CO_RETURN_IF_ERROR(stage_status);
  KVCSD_CO_RETURN_IF_ERROR(merge_status);
  // The runs are merged: their clusters only wait for the release after
  // the commit, and no snapshot needs to list them.
  zone_manager_.Unlist(temp_clusters);

  // ---- Fused secondary indexes: concurrent per-spec merges ----
  KeyspaceLayout next;
  if (!fused_specs.empty()) {
    std::vector<SecondaryIndex> fused_out(fused_specs.size());
    sim::TaskGroup merges(sim_);
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      merges.Spawn(
          SidxMergeToBlocks(&fused_states[i], fused_specs[i], &fused_out[i]));
    }
    const Status sidx_status = co_await merges.Wait();
    // The merges may have spilled more TEMP clusters and written SIDX
    // output; duplicates with the release above are harmless (cluster ids
    // are never reused, and a release skips ids it no longer owns).
    for (const SidxSortState& state : fused_states) {
      scratch->insert(scratch->end(), state.temp_clusters.begin(),
                      state.temp_clusters.end());
    }
    for (const SecondaryIndex& sidx : fused_out) {
      scratch->insert(scratch->end(), sidx.sidx_clusters.begin(),
                      sidx.sidx_clusters.end());
    }
    KVCSD_CO_RETURN_IF_ERROR(sidx_status);
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      next.secondary_indexes[fused_specs[i].name] = std::move(fused_out[i]);
    }
  }
  compaction_stats_.phase2_ticks += sim_->Now() - phase2_start;
  stats()
      .histogram("device.compact.phase2_ns")
      .Record(sim_->Now() - phase2_start);
  if (sim_->tracer().enabled()) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_compaction_), "phase2.merge_index",
        phase2_start,
        sim_->Now(),
        {{"keyspace", ks->name}, {"fanin", std::to_string(runs.size())}});
  }

  next.pidx_clusters = std::move(pipe.pidx_clusters);
  next.sorted_value_clusters = std::move(pipe.value_clusters);
  next.pidx_sketch = std::move(pipe.sketch);
  // Empty when bloom is disabled.
  if (bloom.has_value()) next.pidx_bloom = bloom->Finish();
  // After the LWW pass, entries_total is the exact count of distinct live
  // keys in the run (duplicates collapsed, tombstone winners dropped).
  next.run_entries = pipe.entries_total;
  co_return JobOutput{std::move(next), std::move(temp_clusters), nullptr};
}

// ---------------------------------------------------------------------------
// Separate secondary-index construction (the paper's implemented design)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::BuildSecondaryIndex(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec) {
  if (ks->state != KeyspaceState::kCompacted) {
    co_return Status::FailedPrecondition(
        "secondary indexes attach to COMPACTED keyspaces only");
  }
  if (spec.name.empty()) {
    co_return Status::InvalidArgument("secondary index needs a name");
  }
  if (ks->secondary_indexes.contains(spec.name)) {
    co_return Status::AlreadyExists("secondary index exists: " + spec.name);
  }

  SidxSortState state;
  state.run_budget = config_.EffectiveSortRunBytes();
  SecondaryIndex sidx;
  Status result = co_await BuildSecondaryIndexInner(ks, spec, &state, &sidx);
  std::vector<ClusterId> doomed;
  if (result.ok()) {
    // The sketch's durable copy lands before the snapshot that names it.
    auto blob = co_await keyspace_manager_.WriteSidxBlob(
        sidx.sketch, sim::Activity::kCompact);
    if (blob.ok()) {
      sidx.sketch_blob = *blob;
      doomed.push_back(blob->cluster);
    }
    result = blob.status();
  }
  if (result.ok()) {
    ks->secondary_indexes[spec.name] = std::move(sidx);
    result = co_await keyspace_manager_.Persist();
    if (result.ok()) co_return result;
    // Persist failed: the index exists in DRAM only; un-install so the
    // live table matches what a restart would recover, then fall through
    // to release its clusters.
    sidx = std::move(ks->secondary_indexes[spec.name]);
    ks->secondary_indexes.erase(spec.name);
  }
  doomed.insert(doomed.end(), state.temp_clusters.begin(),
                state.temp_clusters.end());
  doomed.insert(doomed.end(), sidx.sidx_clusters.begin(),
                sidx.sidx_clusters.end());
  // Best-effort: no durable snapshot references the failed build's
  // clusters, so recovery reclaims any a failed reset leaves behind.
  co_await zone_manager_.ReleaseBestEffort(std::move(doomed));
  co_return result;
}

sim::Task<Status> Device::BuildSecondaryIndexInner(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec, SidxSortState* state,
    SecondaryIndex* out) {
  // Step 1 (paper): full scan extracting <skey, pkey> pairs. Walk PIDX
  // blocks via the sketch; gather values batch-wise; extract. A batch
  // ends once it holds output_batch_bytes of values, so each extraction
  // charge is one short slice of a core, and concurrent builds interleave
  // their extraction with each other's gathers. One batch's gather
  // overlaps the extraction of the batch before it: at most one gather
  // is in flight and two batches of values are resident. Batches are
  // extracted in scan order and runs close on tuple bytes, not on
  // batches, so the batch size and the overlap move timings only.
  struct ScanBatch {
    std::vector<ValueRef> refs;
    std::vector<std::string> keys;
    std::uint64_t bytes = 0;
    std::vector<std::string> values;
  };
  std::array<ScanBatch, 2> batches;
  std::size_t open = 0;  // the batch the scan fills
  sim::TaskGroup gather(sim_);  // gathers batches[1 - open]
  bool gathering = false;

  auto gather_values = [this](ScanBatch* b) -> sim::Task<Status> {
    auto values = co_await GatherValues(b->refs, sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    b->values = std::move(*values);
    co_return Status::Ok();
  };
  // Adds a gathered batch's tuples to the sort and empties the batch.
  auto extract = [&](ScanBatch* b) -> sim::Task<Status> {
    if (b->refs.empty()) co_return Status::Ok();
    co_await cpu_.ComputeSliced(b->bytes, config_.costs.extract_bytes_per_sec,
                                sim::Activity::kCompact);
    for (std::size_t i = 0; i < b->refs.size(); ++i) {
      auto skey = nvme::ExtractSecondaryKey(Slice(b->values[i]), spec);
      if (!skey.ok()) co_return skey.status();
      SidxTuple tuple{std::move(*skey), std::move(b->keys[i]),
                      b->refs[i].addr, b->refs[i].len};
      if (state->Add(std::move(tuple))) {
        KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));
      }
    }
    b->refs.clear();
    b->keys.clear();
    b->values.clear();
    b->bytes = 0;
    co_return Status::Ok();
  };
  // Closes the open batch: waits for the previous batch's values, starts
  // the open batch's gather and extracts the previous batch meanwhile.
  auto ship = [&]() -> sim::Task<Status> {
    if (gathering) {
      gathering = false;
      KVCSD_CO_RETURN_IF_ERROR(co_await gather.Wait());
    }
    if (!batches[open].refs.empty()) {
      gather.Spawn(gather_values(&batches[open]));
      gathering = true;
    }
    open = 1 - open;
    co_return co_await extract(&batches[open]);
  };

  // PIDX blocks are read in batches (StreamIndexBlocks), searched on the
  // SoC cores (a block search is the decode's only charge) and scanned in
  // sketch order, so the scan batches (and everything sorted from them)
  // are exactly those of a block-at-a-time walk. The scan gathers values
  // itself, so one block gather in flight (overlapping the scan of the
  // batch before it) keeps ahead of it; a second would only hold back the
  // value gathers on the channels they share. The blocks read go into the
  // index cache (a fill, not a lookup), so the queries that follow a
  // build find the run warm.
  struct ScannedEntry {
    std::string key;
    std::uint64_t vaddr = 0;
    std::uint32_t vlen = 0;
  };
  auto decode_block = [this, ks](std::size_t k, const std::string& block,
                                 std::vector<ScannedEntry>* entries)
      -> sim::Task<Status> {
    index_cache_.Insert(ks->id, ks->pidx_sketch[k].block_addr, block);
    co_await cpu_.Compute(config_.costs.block_search, sim::Activity::kCompact);
    co_return wire::ForEachIndexEntry<wire::PidxEntry>(
        block, [entries](const wire::PidxEntry& entry) {
          entries->push_back(
              ScannedEntry{entry.key.ToString(), entry.vaddr, entry.vlen});
          return true;
        });
  };
  auto scan_block = [&](std::size_t, std::vector<ScannedEntry> entries)
      -> sim::Task<Status> {
    for (ScannedEntry& entry : entries) {
      ScanBatch& b = batches[open];
      b.refs.push_back(ValueRef{entry.vaddr, entry.vlen});
      b.keys.push_back(std::move(entry.key));
      b.bytes += entry.vlen;
      if (b.bytes >= config_.output_batch_bytes) {
        KVCSD_CO_RETURN_IF_ERROR(co_await ship());
      }
    }
    co_return Status::Ok();
  };
  std::vector<std::size_t> every(ks->pidx_sketch.size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  Status status = co_await StreamIndexBlocks<std::vector<ScannedEntry>>(
      ks->pidx_sketch, every, 1, sim::Activity::kCompact, decode_block,
      scan_block);
  // The last open batch, then the last gathered one.
  if (status.ok()) status = co_await ship();
  if (status.ok()) status = co_await ship();
  // A failed step may leave a gather writing into `batches`: join it.
  if (gathering) {
    const Status joined = co_await gather.Wait();
    if (status.ok()) status = joined;
  }
  KVCSD_CO_RETURN_IF_ERROR(status);

  // Step 2: merge runs into SIDX blocks + sketch.
  co_return co_await SidxMergeToBlocks(state, spec, out);
}

}  // namespace kvcsd::device
