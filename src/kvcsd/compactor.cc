// Deferred compaction and secondary-index construction (paper §V).
//
// Compaction sorts a keyspace in two steps, exactly as the paper
// describes: (1) sort the keys — an external merge sort whose run size is
// bounded by SoC DRAM, with intermediate runs stored in temporarily
// allocated TEMP zone clusters; (2) use the sorted keys to sort the values
// — a DRAM-batched external permutation that gathers values with
// address-coalesced reads and streams them out in key order. The result is
// the SORTED_VALUES + PIDX clusters and an in-memory pivot sketch (one
// entry per 4 KB PIDX block) kept in the keyspace table.
//
// Both steps are pipelined across the SoC cores (DESIGN.md §7):
//
//  * Phase 1 fans run generation out over the KLOG zones with
//    sim::ParallelFor — each worker streams its zone in bounded chunks,
//    sorts, and spills independently. The sort budget is split into a
//    FIXED number of shares (kRunGenShares), not `soc_cores`, so the run
//    layout — and therefore the merged output — is identical no matter
//    how many cores execute the fan-out; core count changes timing only.
//  * Phase 2 is three stages over bounded channels. The key merge splits
//    the key space at splitters picked from the runs' sparse indexes and
//    merges the key-range partitions at once, up to one per core, each a
//    loser-tree merge over double-buffered TEMP readers (merge.h) that
//    resolves last-writer-wins inside its range; a sequencer consumes the
//    partitions in key order and cuts value batches exactly where one
//    serial merge would. The write stage gathers each batch's values and
//    rewrites them in key order; the index stage builds PIDX blocks, the
//    bloom filter and fused secondary-key tuples. The merge of batch N+1
//    overlaps the write of batch N and the indexing of N-1.
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

// SORTED_VALUES go out in appends of at most `limit` bytes, cut greedily
// by value size: true when a value of `len` bytes must start a new append
// after `*fill` bytes of the current one. Advances *fill past the value.
bool NextValueStartsAppend(std::uint64_t* fill, std::uint64_t len,
                           std::uint64_t limit) {
  const bool starts = *fill > 0 && *fill + len > limit;
  *fill = starts ? len : *fill + len;
  return starts;
}

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
  co_await cpu_.ComputeBytes(sort_bytes, config_.costs.merge_bytes_per_sec,
                             sim::Activity::kCompact);
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) { return Traits::Less(a, b); });
  SpilledRun run;
  run.entries = entries->size();
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
    if (run.index.empty() ||
        run.bytes >= run.index.back().offset + kRunIndexStride) {
      run.index.push_back(RunMark{Traits::Key(e), run.bytes});
    }
    const std::size_t before = chunk.size();
    Traits::Append(&chunk, e);
    run.bytes += chunk.size() - before;
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
                                           RunGenOutput* out) {
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
        &current, bytes, &out->temp_clusters, &out->runs);
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
      co_await cpu_.ComputeBytes(state->current_bytes,
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
      co_await cpu_.ComputeBytes(packed, pack_rate, sim::Activity::kCompact);
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
    if (packed > 0) {
      co_await cpu_.ComputeBytes(packed, pack_rate, sim::Activity::kCompact);
    }
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

// One unit of hand-off between the phase-2 stages: a run of merged live
// entries and, once the write stage is done with it, their gathered values
// and the addresses the values were rewritten to.
struct Device::ValueBatch {
  std::uint64_t index = 0;  // position in merge order
  std::vector<KlogEntry> entries;
  std::vector<std::string> values;
  std::vector<std::uint64_t> new_addrs;
  std::uint64_t value_bytes = 0;

  void Admit(KlogEntry entry) {
    value_bytes += entry.value_len;
    entries.push_back(std::move(entry));
  }
};

struct Device::Phase2Pipeline {
  explicit Phase2Pipeline(Device* device)
      : dev(device), merged(device->sim_, 1), written(device->sim_, 1) {}

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
  sim::BoundedChannel<std::unique_ptr<ValueBatch>> merged;   // merge -> write
  sim::BoundedChannel<std::unique_ptr<ValueBatch>> written;  // write -> index
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
      co_await cpu_.ComputeBytes(merged_bytes,
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
  if (merged_bytes > 0) {
    co_await cpu_.ComputeBytes(merged_bytes, config_.costs.merge_bytes_per_sec,
                               sim::Activity::kCompact);
  }
  co_return std::move(live);
}

sim::Task<Status> Device::ValueWriteStage(Phase2Pipeline* pipe) {
  // Gathers the batch's values and rewrites them in key order; values
  // [first, upto) go out as one append, and their new addresses are filled
  // in when it lands.
  auto write = [&](ValueBatch* b) -> sim::Task<Status> {
    std::vector<ValueRef> refs;
    refs.reserve(b->entries.size());
    for (const KlogEntry& e : b->entries) {
      refs.push_back(ValueRef{e.value_addr, e.value_len});
    }
    auto values = co_await GatherValues(std::move(refs), sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    compaction_stats_.bytes_read += b->value_bytes;
    co_await cpu_.ComputeBytes(b->value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kCompact);
    b->values = std::move(*values);
    b->new_addrs.assign(b->entries.size(), 0);

    ChainWriter out(this, &pipe->value_clusters, ZoneType::kSortedValues,
                    sim::Activity::kCompact);
    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    std::size_t chunk_first = 0;
    auto flush = [&](std::size_t upto) -> sim::Task<Status> {
      const std::size_t first = chunk_first;
      chunk_first = upto;
      std::string data = std::move(chunk);
      chunk.clear();
      chunk.reserve(config_.output_batch_bytes);
      co_return co_await out.Append(
          std::move(data), [b, first, upto](std::uint64_t addr) {
            for (std::size_t i = first; i < upto; ++i) {
              b->new_addrs[i] = addr;
              addr += b->values[i].size();
            }
          });
    };
    Status status = Status::Ok();
    std::uint64_t fill = 0;
    for (std::size_t i = 0; i < b->entries.size(); ++i) {
      if (NextValueStartsAppend(&fill, b->values[i].size(),
                                config_.output_batch_bytes)) {
        status = co_await flush(i);
        if (!status.ok()) break;
      }
      chunk += b->values[i];
    }
    if (status.ok() && !chunk.empty()) {
      status = co_await flush(b->entries.size());
    }
    // The index stage reads new_addrs: every append must have landed.
    const Status joined = co_await out.Join();
    co_return status.ok() ? joined : status;
  };

  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->merged.Pop();
    if (!item.has_value()) break;
    // Drain after a failure: the merge must always wake.
    if (!result.ok() || pipe->failed) continue;
    const Tick start = sim_->Now();
    result = co_await write(item->get());
    if (!result.ok()) {
      pipe->failed = true;
      continue;
    }
    pipe->Record("write", **item, start);
    co_await pipe->written.Push(std::move(*item));
  }
  pipe->written.Close();
  co_return result;
}

sim::Task<Status> Device::IndexBuildStage(Phase2Pipeline* pipe) {
  IndexWriter pidx(this, ZoneType::kPidx, &pipe->pidx_clusters, &pipe->sketch,
                   sim::Activity::kCompact);
  auto process = [&](ValueBatch& b) -> sim::Task<Status> {
    // Fused secondary-key extraction touches every value byte while the
    // batch sits in DRAM anyway (no keyspace re-read).
    if (!pipe->specs->empty()) {
      co_await cpu_.ComputeBytes(b.value_bytes,
                                 config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    }
    std::uint64_t bloom_key_bytes = 0;
    for (std::size_t i = 0; i < b.entries.size(); ++i) {
      const KlogEntry& e = b.entries[i];
      if (pidx.AddPidx(e.key, b.new_addrs[i], e.value_len)) {
        KVCSD_CO_RETURN_IF_ERROR(co_await pidx.Flush());
      }
      if (pipe->bloom != nullptr) {
        pipe->bloom->AddKey(Slice(e.key));
        bloom_key_bytes += e.key.size();
      }

      for (std::size_t spec_index = 0; spec_index < pipe->specs->size();
           ++spec_index) {
        auto skey = nvme::ExtractSecondaryKey(Slice(b.values[i]),
                                              (*pipe->specs)[spec_index]);
        if (!skey.ok()) co_return skey.status();
        SidxSortState& state = (*pipe->sidx_states)[spec_index];
        SidxTuple tuple{std::move(*skey), e.key, b.new_addrs[i], e.value_len};
        if (state.Add(std::move(tuple))) {
          KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(&state));
        }
      }
    }
    pipe->entries_total += b.entries.size();
    if (pipe->bloom != nullptr && bloom_key_bytes > 0) {
      // Hashing each key into the filter costs about one checksum pass.
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kCompact);
    }
    co_return Status::Ok();
  };

  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->written.Pop();
    if (!item.has_value()) break;
    // Drain after a failure: the write stage must always wake.
    if (!result.ok() || pipe->failed) continue;
    const Tick start = sim_->Now();
    result = co_await process(**item);
    if (!result.ok()) {
      pipe->failed = true;
      continue;
    }
    pipe->Record("index", **item, start);
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
  Status result = Status::Ok();
  if (fold) {
    result = co_await RunRecompaction(ks, &scratch);
  } else {
    result = co_await RunCompaction(ks, std::move(fused_specs), &scratch);
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
sim::Task<Result<KeyspaceLayout>> Device::CommitLayout(
    Keyspace* ks, KeyspaceLayout next, std::vector<ClusterId>* scratch) {
  const KeyspaceState compacting = ks->state;
  std::swap(static_cast<KeyspaceLayout&>(*ks), next);
  ks->state = KeyspaceState::kCompacted;
  Status commit = co_await keyspace_manager_.Persist();
  if (!commit.ok()) {
    std::swap(static_cast<KeyspaceLayout&>(*ks), next);
    ks->state = compacting;
    co_return commit;
  }
  scratch->clear();
  // Cached blocks of this keyspace id may belong to the old layout: a
  // fold rewrites blocks, and a compaction can follow a rolled-back one.
  index_cache_.EraseKeyspace(ks->id);
  co_return std::move(next);
}

sim::Task<void> Device::ReleaseSuperseded(const KeyspaceLayout& old,
                                          const KeyspaceLayout& now) {
  const std::vector<ClusterId> live = now.Clusters();
  const std::set<ClusterId> kept(live.begin(), live.end());
  std::vector<ClusterId> dead;
  for (ClusterId id : old.Clusters()) {
    if (!kept.contains(id)) dead.push_back(id);
  }
  // Best-effort: the committed snapshot no longer references these, so a
  // cluster a failed reset (or a power cut) leaves behind is reclaimed by
  // recovery as unreferenced.
  co_await zone_manager_.ReleaseBestEffort(std::move(dead));
}

sim::Task<Status> Device::RunCompaction(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::vector<ClusterId>* scratch) {
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

  std::vector<SidxSortState> fused_states(fused_specs.size());
  for (auto& state : fused_states) state.run_budget = run_budget;

  // ---- Phase 1: parallel run generation over the KLOG zones ----
  const Tick phase1_start = sim_->Now();
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
    return GenerateZoneRuns(klog_zones[i], gen_budget, &gen_outputs[i]);
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
  compaction_stats_.phase1_ticks += sim_->Now() - phase1_start;
  stats()
      .histogram("device.compact.phase1_ns")
      .Record(sim_->Now() - phase1_start);
  if (sim_->tracer().enabled()) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_compaction_), "phase1.run_gen", phase1_start,
        sim_->Now(),
        {{"keyspace", ks->name}, {"runs", std::to_string(runs.size())}});
  }

  // ---- Phase 2: merge -> gather + value write -> index build ----
  const Tick phase2_start = sim_->Now();
  compaction_stats_.max_merge_fanin =
      std::max<std::uint64_t>(compaction_stats_.max_merge_fanin, runs.size());

  std::optional<BloomFilterBuilder> bloom;
  if (config_.bloom_bits_per_key > 0) {
    bloom.emplace(static_cast<int>(config_.bloom_bits_per_key));
  }
  Phase2Pipeline pipe(this);
  pipe.specs = &fused_specs;
  pipe.sidx_states = &fused_states;
  pipe.bloom = bloom.has_value() ? &*bloom : nullptr;
  sim::TaskGroup stages(sim_);
  stages.Spawn(ValueWriteStage(&pipe));
  stages.Spawn(IndexBuildStage(&pipe));

  // Up to five batches can be DRAM-resident at once (one being merged, one
  // queued for the write stage, one being gathered and written, one queued
  // for the index stage, one being indexed), so each takes a fifth of the
  // key share. A batch ends at the first SORTED_VALUES append boundary
  // past its budget (at most one append later), so the appends, and the
  // address of every value, are those of a single batch: the budget
  // decides when values are written, never where.
  const std::uint64_t batch_budget = std::max<std::uint64_t>(
      config_.dram_bytes / 4 / budget_shares / 5, KiB(64));

  // The key merge runs as key-range partitions, consumed in key order by
  // the sequencer below. `cores` is this compaction's share of the SoC
  // (compactions of several keyspaces already run side by side), and at
  // most that many partitions merge at once. The batch being merged holds
  // keys only (the write stage gathers its values), so its fifth of the
  // key share holds the merged entries waiting ahead of the sequencer: at
  // most `cores` partitions in flight plus the one being consumed, each of
  // about a (cores + 1)-th of the batch budget. With more than one core,
  // the runs also split into kMergePartitionsPerCore partitions per core;
  // with one, partitions only keep to the DRAM bound.
  const auto cores = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      config_.soc_cores / std::max<std::uint64_t>(compactions_running_, 1),
      1));
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
  auto batch = std::make_unique<ValueBatch>();
  Tick batch_start = sim_->Now();
  // Hands the open batch to the write stage and opens the next one.
  auto ship = [&]() -> sim::Task<void> {
    pipe.Record("merge", *batch, batch_start);
    const std::uint64_t next = batch->index + 1;
    co_await pipe.merged.Push(std::move(batch));
    batch = std::make_unique<ValueBatch>();
    batch->index = next;
    batch_start = sim_->Now();
  };
  std::uint64_t append_fill = 0;
  // True when the open batch must end right before `e`.
  auto ends_batch = [&](const KlogEntry& e) {
    return NextValueStartsAppend(&append_fill, e.value_len,
                                 config_.output_batch_bytes) &&
           batch->value_bytes >= batch_budget;
  };
  auto merge_partition = [&](std::size_t partition) {
    return MergePartition(runs, splitters, partition, &pipe.failed);
  };
  auto sequence = [&](std::size_t,
                      std::vector<KlogEntry> live) -> sim::Task<Status> {
    for (KlogEntry& e : live) {
      if (pipe.failed) co_return Status::Aborted("compaction pipeline failed");
      if (ends_batch(e)) co_await ship();
      batch->Admit(std::move(e));
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

  // ---- Commit ----
  // Phase-1 temporaries are dead weight either way; drop them while the
  // sketches and the bloom filter go to flash out of line, ahead of the
  // snapshot that will reference them. The bloom filter shares the
  // sketch's blob, so recovery restores both or neither; it is empty when
  // bloom is disabled.
  next.pidx_clusters = std::move(pipe.pidx_clusters);
  next.sorted_value_clusters = std::move(pipe.value_clusters);
  next.pidx_sketch = std::move(pipe.sketch);
  if (bloom.has_value()) next.pidx_bloom = bloom->Finish();
  // After the LWW pass, entries_total is the exact count of distinct live
  // keys in the run (duplicates collapsed, tombstone winners dropped).
  next.num_kvs = pipe.entries_total;
  next.run_entries = pipe.entries_total;
  {
    sim::TraceSpan release(sim_, trk_compaction_, "compact.release");
    sim::TaskGroup blobs(sim_);
    blobs.Spawn(StoreBlob(
        keyspace_manager_.WritePidxBlob(next.pidx_sketch, next.pidx_bloom,
                                        sim::Activity::kCompact),
        &next.pidx_blob, scratch));
    for (auto& [name, sidx] : next.secondary_indexes) {
      blobs.Spawn(StoreBlob(keyspace_manager_.WriteSidxBlob(
                                sidx.sketch, sim::Activity::kCompact),
                            &sidx.sketch_blob, scratch));
    }
    // Best-effort: no snapshot references the TEMP runs, so recovery
    // reclaims any a failed reset leaves behind.
    co_await zone_manager_.ReleaseBestEffort(std::move(temp_clusters));
    KVCSD_CO_RETURN_IF_ERROR(co_await blobs.Wait());
  }
  if (CrashPoint("compact.before_commit")) {
    co_return Status::IoError("simulated power loss before commit");
  }

  // The commit point: the logs give way to the sorted run and indexes.
  auto old = co_await CommitLayout(ks, std::move(next), scratch);
  if (!old.ok()) co_return old.status();
  stats().counter("device.compact.done").Increment();

  // Past the commit point the compaction HAS happened; a crash here loses
  // nothing (recovery reclaims the old logs as unreferenced clusters).
  (void)CrashPoint("compact.after_commit");
  sim::TraceSpan release(sim_, trk_compaction_, "compact.release");
  co_await ReleaseSuperseded(*old, *ks);
  co_return Status::Ok();
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
    co_await cpu_.ComputeBytes(b->bytes, config_.costs.extract_bytes_per_sec,
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

  // PIDX blocks are read gather_fanout wide through a read-ahead ring and
  // scanned in sketch order, so the scan batches (and everything sorted
  // from them) are exactly those of a block-at-a-time walk.
  auto read_block = [&](std::size_t i) {
    return ReadIndexBlock(ks->id, ks->pidx_sketch[i], sim::Activity::kCompact);
  };
  auto scan_block = [&](std::size_t,
                        const std::string& block) -> sim::Task<Status> {
    std::vector<wire::PidxEntry> entries;
    KVCSD_CO_RETURN_IF_ERROR(wire::ForEachIndexEntry<wire::PidxEntry>(
        block, [&entries](const wire::PidxEntry& entry) {
          entries.push_back(entry);
          return true;
        }));
    for (const wire::PidxEntry& entry : entries) {
      ScanBatch& b = batches[open];
      b.refs.push_back(ValueRef{entry.vaddr, entry.vlen});
      b.keys.push_back(entry.key.ToString());
      b.bytes += entry.vlen;
      if (b.bytes >= config_.output_batch_bytes) {
        KVCSD_CO_RETURN_IF_ERROR(co_await ship());
      }
    }
    co_return Status::Ok();
  };
  Status status = co_await sim::OrderedParallelFor<std::string>(
      sim_, ks->pidx_sketch.size(),
      std::max<std::uint32_t>(config_.gather_fanout, 1), read_block,
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
