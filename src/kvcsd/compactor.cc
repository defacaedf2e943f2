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
//  * Phase 2 merges the runs through a loser tree over double-buffered
//    TEMP readers (merge.h) and hands each gathered value batch to a
//    concurrent index-build stage over a bounded channel, so PIDX
//    building + fused extraction of batch N overlap the value gather and
//    sorted-value writes of batch N+1.
//
// Secondary indexes are built either separately (the paper's implemented
// design: a full scan of the compacted keyspace, extract, external sort)
// or fused into the compaction pass (the paper's §V future-work variant:
// keys are extracted while the values are already in DRAM during phase 2,
// skipping the re-read at the cost of extra DRAM pressure). Fused per-spec
// merges run concurrently in a TaskGroup.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/bloom.h"
#include "common/keys.h"
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

using wire::AsBytes;

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
    if (current.empty()) co_return Status::Ok();
    co_await cpu_.ComputeBytes(current_bytes,
                               config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
    // (key, seq): duplicate keys stay newest-last within the run, matching
    // KlogMergeTraits so the merge's last-writer-wins pass sees every
    // version of a key adjacently in seq order.
    std::sort(current.begin(), current.end(),
              [](const KlogEntry& a, const KlogEntry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.seq < b.seq;
              });
    SpilledRun spilled;
    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    auto flush_chunk = [&]() -> sim::Task<Status> {
      if (chunk.empty()) co_return Status::Ok();
      co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
      auto addr = co_await AppendToChain(&out->temp_clusters, ZoneType::kTemp,
                                         AsBytes(chunk), sim::Activity::kCompact);
      if (!addr.ok()) co_return addr.status();
      compaction_stats_.bytes_written += chunk.size();
      spilled.segments.emplace_back(*addr,
                                    static_cast<std::uint32_t>(chunk.size()));
      chunk.clear();
      co_return Status::Ok();
    };
    for (const KlogEntry& e : current) {
      if (chunk.size() + e.key.size() + 20 > config_.output_batch_bytes) {
        KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
      }
      wire::AppendKlogEntry(&chunk, e.key, e.value_addr, e.value_len, e.seq,
                            e.tombstone);
      ++spilled.entries;
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
    ++compaction_stats_.runs_spilled;
    out->runs.push_back(std::move(spilled));
    current.clear();
    current_bytes = 0;
    co_return Status::Ok();
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
  if (state->current.empty()) co_return Status::Ok();
  co_await cpu_.ComputeBytes(state->current_bytes,
                             config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
  std::sort(state->current.begin(), state->current.end(), SidxOrder);
  SpilledRun spilled;
  std::string chunk;
  auto flush_chunk = [&]() -> sim::Task<Status> {
    if (chunk.empty()) co_return Status::Ok();
    co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
    auto addr = co_await AppendToChain(&state->temp_clusters,
                                       ZoneType::kTemp, AsBytes(chunk), sim::Activity::kCompact);
    if (!addr.ok()) co_return addr.status();
    compaction_stats_.bytes_written += chunk.size();
    spilled.segments.emplace_back(*addr,
                                  static_cast<std::uint32_t>(chunk.size()));
    chunk.clear();
    co_return Status::Ok();
  };
  for (const SidxTuple& t : state->current) {
    if (chunk.size() + wire::SidxEntrySize(t.skey, t.pkey) >
        config_.output_batch_bytes) {
      KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
    }
    wire::AppendSidxEntry(&chunk, t.skey, t.pkey, t.vaddr, t.vlen);
    ++spilled.entries;
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
  ++compaction_stats_.runs_spilled;
  state->runs.push_back(std::move(spilled));
  state->current.clear();
  state->current_bytes = 0;
  co_return Status::Ok();
}

sim::Task<Status> Device::SidxAdd(SidxSortState* state, SidxTuple tuple) {
  state->current_bytes += tuple.skey.size() + tuple.pkey.size() + 12;
  state->current.push_back(std::move(tuple));
  if (state->current_bytes >= state->run_budget) {
    KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));
  }
  co_return Status::Ok();
}

sim::Task<Status> Device::SidxMergeToBlocks(
    SidxSortState* state, const nvme::SecondaryIndexSpec& spec,
    SecondaryIndex* out) {
  KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));

  compaction_stats_.max_merge_fanin = std::max<std::uint64_t>(
      compaction_stats_.max_merge_fanin, state->runs.size());
  RunMerger<SidxMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(state->runs, &compaction_stats_.bytes_read));

  SecondaryIndex& sidx = *out;
  sidx.spec = spec;
  wire::IndexBlockPacker packer(config_.index_block_size);
  auto flush_blocks = [&]() -> sim::Task<Status> {
    if (packer.closed_bytes() == 0) co_return Status::Ok();
    std::vector<std::string> pivots;
    const std::string blob = packer.Take(&pivots);
    co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
    auto addr = co_await AppendToChain(&sidx.sidx_clusters, ZoneType::kSidx,
                                       AsBytes(blob), sim::Activity::kCompact);
    if (!addr.ok()) co_return addr.status();
    compaction_stats_.bytes_written += blob.size();
    for (std::size_t i = 0; i < pivots.size(); ++i) {
      sidx.sketch.push_back(SketchEntry{
          std::move(pivots[i]), *addr + i * config_.index_block_size,
          config_.index_block_size});
    }
    co_return Status::Ok();
  };

  std::uint64_t merged = 0;
  while (!merger.Empty()) {
    SidxTuple t;
    KVCSD_CO_RETURN_IF_ERROR(co_await merger.Pop(&t));

    merged += t.skey.size() + t.pkey.size() + 12;
    if (merged >= MiB(1)) {
      co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      merged = 0;
    }
    packer.AddSidx(t.skey, t.pkey, t.vaddr, t.vlen);
    ++sidx.entries;
    if (packer.closed_bytes() >= config_.output_batch_bytes) {
      KVCSD_CO_RETURN_IF_ERROR(co_await flush_blocks());
    }
  }
  if (merged > 0) {
    co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
  }
  packer.Close();
  KVCSD_CO_RETURN_IF_ERROR(co_await flush_blocks());

  // Best-effort: the runs are merged, and a TEMP cluster a failed reset
  // leaves behind is unreferenced, so recovery reclaims it.
  (void)co_await zone_manager_.ReleaseClusters(std::move(state->temp_clusters));
  state->temp_clusters.clear();
  state->runs.clear();
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 2: merge + value permutation, pipelined with index building
// ---------------------------------------------------------------------------

// One unit of hand-off between the gather/write stage and the index-build
// stage: a run of merged entries with their gathered values and the
// addresses the values were rewritten to.
struct Device::ValueBatch {
  std::vector<KlogEntry> entries;
  std::vector<std::string> values;
  std::vector<std::uint64_t> new_addrs;
  std::uint64_t value_bytes = 0;
};

struct Device::PidxPipeline {
  sim::BoundedChannel<std::unique_ptr<ValueBatch>>* channel = nullptr;
  const std::vector<nvme::SecondaryIndexSpec>* specs = nullptr;
  std::vector<SidxSortState>* sidx_states = nullptr;
  // When non-null, every merged key is also added to the keyspace's bloom
  // filter here — the one moment all primary keys stream through DRAM in
  // order, so the filter build costs no extra I/O (DESIGN.md §10).
  BloomFilterBuilder* bloom = nullptr;
  std::vector<SketchEntry> sketch;
  std::vector<ClusterId> pidx_clusters;
  std::uint64_t entries_total = 0;
  // Set when the consumer fails; the producer stops feeding new batches.
  bool failed = false;
};

sim::Task<Status> Device::IndexBuildStage(PidxPipeline* pipe) {
  wire::IndexBlockPacker packer(config_.index_block_size);
  auto flush_blocks = [&]() -> sim::Task<Status> {
    if (packer.closed_bytes() == 0) co_return Status::Ok();
    std::vector<std::string> pivots;
    const std::string blob = packer.Take(&pivots);
    co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
    auto addr = co_await AppendToChain(&pipe->pidx_clusters, ZoneType::kPidx,
                                       AsBytes(blob), sim::Activity::kCompact);
    if (!addr.ok()) co_return addr.status();
    compaction_stats_.bytes_written += blob.size();
    for (std::size_t i = 0; i < pivots.size(); ++i) {
      pipe->sketch.push_back(SketchEntry{
          std::move(pivots[i]), *addr + i * config_.index_block_size,
          config_.index_block_size});
    }
    co_return Status::Ok();
  };

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
      packer.AddPidx(e.key, b.new_addrs[i], e.value_len);
      if (packer.closed_bytes() >= config_.output_batch_bytes) {
        KVCSD_CO_RETURN_IF_ERROR(co_await flush_blocks());
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
        SidxTuple tuple{std::move(*skey), e.key, b.new_addrs[i], e.value_len};
        KVCSD_CO_RETURN_IF_ERROR(co_await SidxAdd(
            &(*pipe->sidx_states)[spec_index], std::move(tuple)));
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
    auto item = co_await pipe->channel->Pop();
    if (!item.has_value()) break;
    if (!result.ok()) continue;  // drain so a blocked producer always wakes
    Status s = co_await process(**item);
    if (!s.ok()) {
      result = s;
      pipe->failed = true;
    }
  }
  packer.Close();
  if (result.ok()) result = co_await flush_blocks();
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
    (void)s;  // failure rolls the keyspace back; surfaced via Stat
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
    (void)co_await zone_manager_.ReleaseClusters(std::move(scratch));
    ks->RollBackCompaction();
    if (faults_ == nullptr || !faults_->crashed()) {
      // Make the rollback durable so a later crash cannot resurrect the
      // (RE)COMPACTING state. Best-effort: the snapshot still on flash
      // also rolls back correctly at recovery.
      (void)co_await keyspace_manager_.Persist();
    }
  }
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
  (void)co_await zone_manager_.ReleaseClusters(std::move(dead));
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

  // ---- Phase 2: loser-tree merge feeding the index-build stage ----
  const Tick phase2_start = sim_->Now();
  compaction_stats_.max_merge_fanin =
      std::max<std::uint64_t>(compaction_stats_.max_merge_fanin, runs.size());

  RunMerger<KlogMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(runs, &compaction_stats_.bytes_read));

  std::vector<ClusterId> value_clusters;
  sim::BoundedChannel<std::unique_ptr<ValueBatch>> batches(sim_, 1);
  std::optional<BloomFilterBuilder> bloom;
  if (config_.bloom_bits_per_key > 0) {
    bloom.emplace(static_cast<int>(config_.bloom_bits_per_key));
  }
  PidxPipeline pipe;
  pipe.channel = &batches;
  pipe.specs = &fused_specs;
  pipe.sidx_states = &fused_states;
  pipe.bloom = bloom.has_value() ? &*bloom : nullptr;
  sim::TaskGroup index_stage(sim_);
  index_stage.Spawn(IndexBuildStage(&pipe));

  // Up to three batches can be DRAM-resident at once (one being built,
  // one queued, one being indexed), so each takes a third of the budget.
  const std::uint64_t batch_budget = std::max<std::uint64_t>(
      config_.dram_bytes / 4 / budget_shares / 3, KiB(64));

  // Gathers the batch's values, rewrites them in key order (recording the
  // new addresses), and hands the batch to the index-build stage.
  auto emit_batch = [&](std::unique_ptr<ValueBatch> b) -> sim::Task<Status> {
    if (b->entries.empty()) co_return Status::Ok();
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

    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    std::size_t chunk_first = 0;
    auto flush_values = [&](std::size_t upto) -> sim::Task<Status> {
      if (chunk.empty()) co_return Status::Ok();
      co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
      auto addr = co_await AppendToChain(&value_clusters,
                                         ZoneType::kSortedValues,
                                         AsBytes(chunk), sim::Activity::kCompact);
      if (!addr.ok()) co_return addr.status();
      compaction_stats_.bytes_written += chunk.size();
      std::uint64_t offset = 0;
      for (std::size_t i = chunk_first; i < upto; ++i) {
        b->new_addrs[i] = *addr + offset;
        offset += b->values[i].size();
      }
      chunk.clear();
      chunk_first = upto;
      co_return Status::Ok();
    };
    for (std::size_t i = 0; i < b->entries.size(); ++i) {
      if (chunk.size() + b->values[i].size() > config_.output_batch_bytes &&
          !chunk.empty()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await flush_values(i));
      }
      chunk += b->values[i];
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await flush_values(b->entries.size()));

    co_await batches.Push(std::move(b));
    co_return Status::Ok();
  };

  Status pipeline_status = Status::Ok();
  {
    auto batch = std::make_unique<ValueBatch>();
    std::uint64_t merged_bytes = 0;
    // Last-writer-wins: the merge yields every version of a key
    // adjacently in ascending mutation-seq order (KlogMergeTraits), so
    // only the final entry of an equal-key group is live. `pending` holds
    // the group's newest version so far; it is admitted when the key
    // changes — unless it is a tombstone, which simply vanishes along
    // with every older version it shadowed.
    std::optional<KlogEntry> pending;
    auto admit = [&](KlogEntry&& entry) -> sim::Task<Status> {
      batch->value_bytes += entry.value_len;
      batch->entries.push_back(std::move(entry));
      if (batch->value_bytes >= batch_budget) {
        Status emitted = co_await emit_batch(std::move(batch));
        batch = std::make_unique<ValueBatch>();
        KVCSD_CO_RETURN_IF_ERROR(emitted);
      }
      co_return Status::Ok();
    };
    while (!merger.Empty() && !pipe.failed) {
      KlogEntry entry;
      Status s = co_await merger.Pop(&entry);
      if (!s.ok()) {
        pipeline_status = s;
        break;
      }
      merged_bytes += entry.key.size() + 12;
      if (merged_bytes >= MiB(1)) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
        merged_bytes = 0;
      }
      if (pending.has_value() && pending->key != entry.key &&
          !pending->tombstone) {
        Status admitted = co_await admit(std::move(*pending));
        if (!admitted.ok()) {
          pipeline_status = admitted;
          break;
        }
      }
      pending = std::move(entry);
    }
    if (pipeline_status.ok() && !pipe.failed) {
      if (pending.has_value() && !pending->tombstone) {
        pipeline_status = co_await admit(std::move(*pending));
      }
      if (merged_bytes > 0) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      }
      if (pipeline_status.ok()) {
        pipeline_status = co_await emit_batch(std::move(batch));
      }
    }
  }
  // Always close + join: the consumer must see end-of-stream even on the
  // error paths, or one side would wait forever. With both stages joined,
  // every cluster the pipeline allocated is visible — record them before
  // acting on either status.
  batches.Close();
  Status index_status = co_await index_stage.Wait();
  scratch->insert(scratch->end(), value_clusters.begin(),
                  value_clusters.end());
  scratch->insert(scratch->end(), pipe.pidx_clusters.begin(),
                  pipe.pidx_clusters.end());
  for (const SidxSortState& state : fused_states) {
    scratch->insert(scratch->end(), state.temp_clusters.begin(),
                    state.temp_clusters.end());
  }
  KVCSD_CO_RETURN_IF_ERROR(pipeline_status);
  KVCSD_CO_RETURN_IF_ERROR(index_status);

  // ---- Fused secondary indexes: concurrent per-spec merges ----
  KeyspaceLayout next;
  if (!fused_specs.empty()) {
    std::vector<SecondaryIndex> fused_out(fused_specs.size());
    sim::TaskGroup merges(sim_);
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      merges.Spawn(
          SidxMergeToBlocks(&fused_states[i], fused_specs[i], &fused_out[i]));
    }
    const Status merge_status = co_await merges.Wait();
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
    KVCSD_CO_RETURN_IF_ERROR(merge_status);
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
  next.sorted_value_clusters = std::move(value_clusters);
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
    (void)co_await zone_manager_.ReleaseClusters(std::move(temp_clusters));
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
  (void)co_await zone_manager_.ReleaseClusters(std::move(doomed));
  co_return result;
}

sim::Task<Status> Device::BuildSecondaryIndexInner(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec, SidxSortState* state,
    SecondaryIndex* out) {
  // Step 1 (paper): full scan extracting <skey, pkey> pairs. Walk PIDX
  // blocks via the sketch; gather values batch-wise; extract.
  std::vector<ValueRef> batch_refs;
  std::vector<std::pair<std::string, std::uint64_t>> batch_meta;
  std::vector<std::uint32_t> batch_lens;
  std::uint64_t batch_bytes = 0;

  auto process_scan_batch = [&]() -> sim::Task<Status> {
    if (batch_refs.empty()) co_return Status::Ok();
    auto values = co_await GatherValues(batch_refs, sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    co_await cpu_.ComputeBytes(batch_bytes,
                               config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    for (std::size_t i = 0; i < values->size(); ++i) {
      auto skey = nvme::ExtractSecondaryKey(Slice((*values)[i]), spec);
      if (!skey.ok()) co_return skey.status();
      SidxTuple tuple{std::move(*skey), batch_meta[i].first,
                      batch_meta[i].second, batch_lens[i]};
      KVCSD_CO_RETURN_IF_ERROR(co_await SidxAdd(state, std::move(tuple)));
    }
    batch_refs.clear();
    batch_meta.clear();
    batch_lens.clear();
    batch_bytes = 0;
    co_return Status::Ok();
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
      batch_refs.push_back(ValueRef{entry.vaddr, entry.vlen});
      batch_meta.emplace_back(entry.key.ToString(), entry.vaddr);
      batch_lens.push_back(entry.vlen);
      batch_bytes += entry.vlen;
      if (batch_bytes >= config_.dram_bytes / 4) {
        KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());
      }
    }
    co_return Status::Ok();
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await sim::OrderedParallelFor<std::string>(
      sim_, ks->pidx_sketch.size(),
      std::max<std::uint32_t>(config_.gather_fanout, 1), read_block,
      scan_block));
  KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());

  // Step 2: merge runs into SIDX blocks + sketch.
  co_return co_await SidxMergeToBlocks(state, spec, out);
}

}  // namespace kvcsd::device
