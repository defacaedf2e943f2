// Incremental re-compaction (DESIGN.md §12): folds a COMPACTED keyspace's
// delta log back into its sorted run WITHOUT re-sorting the run.
//
// The delta index (newest mutation per key, key-ordered) is small relative
// to the run, so the fold touches only what the delta keys touch:
//
//  * Values — live delta values are appended to FRESH SORTED_VALUES
//    clusters in key order; untouched run values stay where they are.
//  * PIDX — each delta key maps to exactly one covering 4 KB block
//    (pivots are unique primary keys). Only those dirty blocks are read,
//    merged two-pointer with the delta (last-writer-wins: a delta PUT
//    replaces the run entry, a tombstone removes it), and rewritten to
//    fresh PIDX clusters. Clean blocks are retained by reference: their
//    sketch entries — and therefore their old clusters — carry over.
//  * SIDX — membership of a stale tuple (pkey overwritten or deleted) is
//    only discoverable by reading each block, so the fold streams every
//    block but REWRITES only dirty regions: maximal runs of consecutive
//    blocks that lost a tuple or that a new tuple sorts into. Regions
//    (not single blocks) are the rebuild unit because secondary keys tie
//    across block boundaries; a region's span provably brackets every
//    tuple tied with the new ones, so the global (skey, pkey) order the
//    scans assert survives. Clean blocks are retained by reference.
//  * Bloom — new keys are OR-ed into the serialized filter in place
//    (BloomFilterAddKey). Deleted keys leave their bits set: that only
//    ever costs false positives, never false negatives. A run with no
//    blocks gets a filter built afresh from the delta's live keys.
//
// Both index folds are batched decode -> merge -> encode pipelines, the
// shape of a compaction's phase 2: Device::StreamIndexBlocks
// (chain_writer.h) gathers the blocks in sketch-order batches, two
// batches in flight, decodes each batch's blocks on the SoC cores (a
// dirty PIDX block is merged with its delta keys there) and hands them in
// order to one IndexWriter, which issues each append without waiting for
// the previous one to finish programming. A region (a rebuilt PIDX block,
// a SIDX dirty region) never shares a block with its neighbours, but
// consecutive regions share output_batch_bytes appends, as a compaction's
// blocks do: the output bytes and sketch pivots are those of one append
// per region, and only block addresses and time differ. The re-appended
// values go through the same windowed ChainWriter.
//
// Commit protocol: the RECOMPACTING state is persisted before any output
// is written (recovery rolls it straight back to COMPACTED, delta intact,
// new clusters reclaimed as unreferenced); the fold then hands the mixed
// old + new sketches and its fresh clusters to Device::Commit, the one
// commit it shares with a compaction (DESIGN.md §8): fresh metadata blobs
// for the indexes it changed, one table persist, then one concurrent-reset
// batch for the delta logs, any old index cluster no retained block
// references and the superseded blobs. A crash anywhere leaves either the
// old state (delta still pending) or the new state (delta folded) — never
// a blend.
#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bloom.h"
#include "kvcsd/chain_writer.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// One SIDX block as the fold's read stage hands it on: the tuples that
// survive the delta, and whether any tuple was dropped.
struct SidxBlockScan {
  std::vector<SidxTuple> survivors;
  bool lost_tuple = false;
};

}  // namespace

sim::Task<Result<std::string>> Device::LoadDeltaValue(const DeltaEntry& entry,
                                                      sim::Activity act) {
  if (entry.has_value) co_return entry.value;
  if (entry.vlen == 0) co_return std::string();
  std::vector<ValueRef> one;
  one.push_back(ValueRef{entry.vaddr, entry.vlen});
  auto values = co_await GatherValues(std::move(one), act);
  if (!values.ok()) co_return values.status();
  co_return std::move((*values)[0]);
}

sim::Task<Result<Device::JobOutput>> Device::RunRecompaction(
    Keyspace* ks, std::vector<ClusterId>* scratch) {
  const Tick fold_start = sim_->Now();
  // Block gathers in flight in both index folds: a fold's consumers only
  // pack and append, so a second gather hides the first one's NAND
  // latency where DRAM keeps batches small; gather_fanout 1 keeps the
  // reads serial.
  const std::uint32_t window = std::min<std::uint32_t>(config_.gather_fanout, 2);
  // The fold must observe the complete delta log (and the durable log
  // extent must match what the fold consumes, for recovery's sake).
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks));

  // Make RECOMPACTING and the final delta-log extents durable before any
  // output is written: recovery must know to roll this keyspace back to
  // COMPACTED and which clusters hold its (still authoritative) delta.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  if (CrashPoint("recompact.before_fold")) {
    co_return Status::IoError("simulated power loss before delta fold");
  }

  // ---- Snapshot the delta (mutations are rejected kBusy from here) ----
  // One entry per delta key, in key order; a tombstone carries no value.
  ValueBatch delta(config_.output_batch_bytes);
  JobOutput output;
  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.values");
    // Batch-load values that only survive as VLOG pointers (post-restart
    // entries); values written this power cycle ride inline.
    std::vector<ValueRef> refs;
    std::vector<std::size_t> ref_slot;
    for (const auto& [key, entry] : ks->delta_index) {
      KlogEntry e{key, entry.vaddr, entry.vlen, entry.seq, entry.tombstone};
      delta.Admit(e);
      if (!entry.tombstone && !entry.has_value) {
        refs.push_back(ValueRef{entry.vaddr, entry.vlen});
        ref_slot.push_back(delta.values.size());
      }
      delta.values.push_back(entry.has_value ? entry.value : std::string());
    }
    if (!refs.empty()) {
      auto values = co_await GatherValues(std::move(refs), sim::Activity::kRecompact);
      if (!values.ok()) co_return values.status();
      for (std::size_t i = 0; i < ref_slot.size(); ++i) {
        delta.values[ref_slot[i]] = std::move((*values)[i]);
      }
    }

    // ---- Re-append live delta values in key order to fresh clusters ----
    std::vector<ClusterId>& fresh = output.next.sorted_value_clusters;
    const Status appended =
        co_await WriteValues(&delta, &fresh, sim::Activity::kRecompact);
    scratch->insert(scratch->end(), fresh.begin(), fresh.end());
    KVCSD_CO_RETURN_IF_ERROR(appended);
    co_await cpu_.ComputeSliced(delta.value_bytes,
                                config_.costs.memcpy_bytes_per_sec,
                                sim::Activity::kRecompact);
  }

  // ---- PIDX fold: rebuild only the blocks the delta keys land in ----
  const std::vector<SketchEntry>& old_sketch = ks->pidx_sketch;
  KeyspaceLayout& next = output.next;
  next.pidx_sketch.reserve(old_sketch.size());
  std::int64_t run_entries_delta = 0;
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;
  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.pidx");
    // Delta keys per covering block, in key order. A key preceding every
    // pivot folds into block 0 (its rebuild simply grows a smaller pivot);
    // with no run at all, everything lands in one from-scratch region.
    std::vector<std::vector<const KlogEntry*>> per_block(old_sketch.size());
    std::vector<const KlogEntry*> orphans;  // run has no blocks
    for (const KlogEntry& e : delta.entries) {
      if (old_sketch.empty()) {
        orphans.push_back(&e);
        continue;
      }
      std::size_t pos = SketchLowerBlock(old_sketch, e.key);
      if (pos >= old_sketch.size()) pos = 0;
      per_block[pos].push_back(&e);
    }
    std::vector<std::size_t> dirty;  // sketch positions to rebuild
    for (std::size_t pos = 0; pos < old_sketch.size(); ++pos) {
      if (!per_block[pos].empty()) dirty.push_back(pos);
    }

    // Two-pointer LWW merge of one dirty block's entries with its delta
    // keys.
    auto merge_block = [&](const std::vector<KlogEntry>& old_recs,
                           const std::vector<const KlogEntry*>& keys,
                           std::vector<KlogEntry>* merged) {
      std::size_t i = 0, j = 0;
      while (i < old_recs.size() || j < keys.size()) {
        if (j >= keys.size() ||
            (i < old_recs.size() && old_recs[i].key < keys[j]->key)) {
          merged->push_back(old_recs[i]);
          ++i;
          continue;
        }
        const KlogEntry* d = keys[j];
        const bool match = i < old_recs.size() && old_recs[i].key == d->key;
        if (match) ++i;
        if (d->tombstone) {
          if (match) --run_entries_delta;  // removed a run key
        } else {
          merged->push_back(*d);
          if (!match) ++run_entries_delta;  // inserted a new key
        }
        ++j;
      }
    };

    // Decode, on the SoC cores: merge dirty block k with its delta keys
    // and charge that block's share of the merge CPU, which streams every
    // entry of the block (so no separate block search is charged).
    auto rebuild = [&](std::size_t k, const std::string& block,
                       std::vector<KlogEntry>* merged) -> sim::Task<Status> {
      compaction_stats_.bytes_read += block.size();
      std::vector<KlogEntry> old_recs;
      std::uint64_t fold_bytes = 0;
      KVCSD_CO_RETURN_IF_ERROR(wire::ForEachIndexEntry<wire::PidxEntry>(
          block, [&](const wire::PidxEntry& parsed) {
            old_recs.push_back(
                KlogEntry{parsed.key.ToString(), parsed.vaddr, parsed.vlen});
            fold_bytes += parsed.key.size() + 12;
            return true;
          }));
      merged->reserve(old_recs.size() + per_block[dirty[k]].size());
      merge_block(old_recs, per_block[dirty[k]], merged);
      if (fold_bytes > 0) {
        co_await cpu_.ComputeSliced(fold_bytes,
                                    config_.costs.merge_bytes_per_sec,
                                    sim::Activity::kRecompact);
      }
      co_return Status::Ok();
    };

    // Consume, in sketch order: carry the clean blocks before dirty block
    // k over by reference, then stage k's rebuilt blocks as one region.
    IndexWriter out(this, ZoneType::kPidx, &next.pidx_clusters,
                    &next.pidx_sketch, sim::Activity::kRecompact);
    auto write_region = [&out](const std::vector<KlogEntry>& region)
        -> sim::Task<Status> {
      for (const KlogEntry& rec : region) {
        if (out.AddPidx(rec.key, rec.value_addr, rec.value_len)) {
          KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
        }
      }
      if (out.EndRegion()) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
      co_return Status::Ok();
    };
    std::size_t carried = 0;  // old blocks consumed so far
    auto write = [&](std::size_t k,
                     std::vector<KlogEntry> merged) -> sim::Task<Status> {
      for (; carried < dirty[k]; ++carried) next.pidx_sketch.push_back(old_sketch[carried]);
      ++carried;
      KVCSD_CO_RETURN_IF_ERROR(co_await write_region(merged));
      if (k == 0 && dirty.size() > 1 && CrashPoint("recompact.mid_pidx")) {
        co_return Status::IoError("simulated power loss mid PIDX fold");
      }
      co_return Status::Ok();
    };
    Status folded = co_await StreamIndexBlocks<std::vector<KlogEntry>>(
        old_sketch, dirty, window, sim::Activity::kRecompact, rebuild, write);
    if (folded.ok()) {
      for (; carried < old_sketch.size(); ++carried) next.pidx_sketch.push_back(old_sketch[carried]);
      if (!orphans.empty()) {
        // Empty run: the delta becomes the run.
        std::vector<KlogEntry> merged;
        merge_block({}, orphans, &merged);
        folded = co_await write_region(merged);
        ++pidx_rebuilt;
      }
    }
    if (folded.ok()) folded = co_await out.Close();
    Status joined = co_await out.Join();
    scratch->insert(scratch->end(), next.pidx_clusters.begin(),
                    next.pidx_clusters.end());
    KVCSD_CO_RETURN_IF_ERROR(folded);
    KVCSD_CO_RETURN_IF_ERROR(joined);
    pidx_retained = old_sketch.size() - dirty.size();
    pidx_rebuilt += dirty.size();
  }

  // ---- SIDX fold: stream all blocks, rewrite only dirty regions ----
  // Every delta key's old tuple (if any) is stale: a tombstone removes
  // it, an overwrite re-points it (and may change its secondary key).
  std::set<std::string> delta_keys;
  for (const KlogEntry& e : delta.entries) delta_keys.insert(e.key);
  std::uint64_t sidx_retained_total = 0;
  std::uint64_t sidx_rebuilt_total = 0;

  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.sidx");
    // Extracting the fresh tuples' secondary keys touches every live delta
    // value byte, charged once for all indexes as the fused build does.
    if (!ks->secondary_indexes.empty() && delta.value_bytes > 0) {
      co_await cpu_.ComputeSliced(delta.value_bytes,
                                  config_.costs.extract_bytes_per_sec,
                                  sim::Activity::kRecompact);
    }
    for (auto& [name, sidx] : ks->secondary_indexes) {
      // The folded index: its fresh clusters and the mixed sketch.
      SecondaryIndex& fold = next.secondary_indexes[name];
      fold.spec = sidx.spec;
      std::uint64_t rebuilt = 0;
      const std::vector<SketchEntry>& sketch = sidx.sketch;

      // New tuples from the live delta values, sorted by (skey, pkey).
      std::vector<SidxTuple> fresh;
      for (std::size_t i = 0; i < delta.entries.size(); ++i) {
        const KlogEntry& e = delta.entries[i];
        if (e.tombstone) continue;
        auto skey = nvme::ExtractSecondaryKey(Slice(delta.values[i]), sidx.spec);
        if (!skey.ok()) co_return skey.status();
        fresh.push_back(
            SidxTuple{std::move(*skey), e.key, e.value_addr, e.value_len});
      }
      std::sort(fresh.begin(), fresh.end(), SidxOrder);

      // Pre-mark the insertion span of each fresh tuple dirty. The span
      // [a, b] brackets every block that can hold tuples tied with the
      // tuple's secondary key: blocks before `a` end strictly below it,
      // blocks after `b` start strictly above it, so rebuilding the
      // consecutive dirty run containing [a, b] preserves global order.
      std::vector<bool> dirty(sketch.size(), false);
      std::vector<std::size_t> fresh_start(fresh.size(), 0);
      for (std::size_t f = 0; f < fresh.size(); ++f) {
        if (sketch.empty()) break;
        const std::size_t a = SketchRangeStart(sketch, fresh[f].skey);
        std::size_t b = SketchLowerBlock(sketch, fresh[f].skey);
        if (b >= sketch.size() || b < a) b = a;
        fresh_start[f] = a;
        for (std::size_t p = a; p <= b; ++p) dirty[p] = true;
      }

      IndexWriter out(this, ZoneType::kSidx, &fold.sidx_clusters,
                      &fold.sketch, sim::Activity::kRecompact);
      std::vector<SidxTuple> region;  // surviving tuples of the open region
      bool region_open = false;
      std::size_t region_start = 0;
      std::size_t fresh_cursor = 0;
      std::uint64_t removed = 0;

      auto emit_region = [&](std::size_t region_end) -> sim::Task<Status> {
        // Merge the region's survivors with the fresh tuples whose
        // insertion span starts inside it, then re-pack as SIDX blocks,
        // charged at SidxMergeToBlocks' rate for DRAM-resident tuples.
        std::vector<SidxTuple> incoming;
        while (fresh_cursor < fresh.size() &&
               (sketch.empty() || (fresh_start[fresh_cursor] >= region_start &&
                                   fresh_start[fresh_cursor] <= region_end))) {
          incoming.push_back(std::move(fresh[fresh_cursor]));
          ++fresh_cursor;
        }
        if (region.empty() && incoming.empty()) co_return Status::Ok();
        std::vector<SidxTuple> merged;
        merged.reserve(region.size() + incoming.size());
        std::merge(std::make_move_iterator(region.begin()),
                   std::make_move_iterator(region.end()),
                   std::make_move_iterator(incoming.begin()),
                   std::make_move_iterator(incoming.end()),
                   std::back_inserter(merged), SidxOrder);
        region.clear();
        std::uint64_t packed = 0;
        for (const SidxTuple& t : merged) {
          packed += t.skey.size() + t.pkey.size() + 12;
        }
        co_await cpu_.ComputeSliced(packed, config_.costs.memcpy_bytes_per_sec,
                                    sim::Activity::kRecompact);
        for (const SidxTuple& t : merged) {
          if (out.AddSidx(t)) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
        }
        if (out.EndRegion()) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
        co_return Status::Ok();
      };

      // Decode, on the SoC cores: search a block and drop its stale tuples.
      auto scan = [&](std::size_t, const std::string& block,
                      SidxBlockScan* scanned) -> sim::Task<Status> {
        compaction_stats_.bytes_read += block.size();
        co_await cpu_.Compute(config_.costs.block_search,
                              sim::Activity::kRecompact);
        co_return wire::ForEachIndexEntry<wire::SidxEntry>(
            block, [&](const wire::SidxEntry& entry) {
              if (delta_keys.contains(entry.pkey.ToString())) {
                scanned->lost_tuple = true;
                ++removed;
              } else {
                scanned->survivors.push_back(
                    SidxTuple{entry.skey.ToString(), entry.pkey.ToString(),
                              entry.vaddr, entry.vlen});
              }
              return true;
            });
      };

      // Consume, in sketch order: dirty blocks grow the open region, a
      // clean block closes it and is retained by reference.
      auto visit = [&](std::size_t pos, SidxBlockScan scanned) -> sim::Task<Status> {
        if (dirty[pos] || scanned.lost_tuple) {
          if (!region_open) {
            region_open = true;
            region_start = pos;
          }
          region.insert(region.end(),
                        std::make_move_iterator(scanned.survivors.begin()),
                        std::make_move_iterator(scanned.survivors.end()));
          ++rebuilt;
          co_return Status::Ok();
        }
        if (region_open) {
          region_open = false;
          KVCSD_CO_RETURN_IF_ERROR(co_await emit_region(pos - 1));
        }
        fold.sketch.push_back(sketch[pos]);  // retained by reference
        ++sidx_retained_total;
        co_return Status::Ok();
      };

      std::vector<std::size_t> every(sketch.size());
      std::iota(every.begin(), every.end(), std::size_t{0});
      Status folded = co_await StreamIndexBlocks<SidxBlockScan>(
          sketch, every, window, sim::Activity::kRecompact, scan, visit);
      if (folded.ok() && region_open) {
        folded = co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1);
      }
      if (folded.ok() && fresh_cursor < fresh.size()) {
        // Remaining fresh tuples (empty index, or a tail span): one final
        // from-scratch region.
        region_start = sketch.size();
        folded = co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1);
        ++rebuilt;
      }
      if (folded.ok()) folded = co_await out.Close();
      Status joined = co_await out.Join();
      scratch->insert(scratch->end(), fold.sidx_clusters.begin(),
                      fold.sidx_clusters.end());
      KVCSD_CO_RETURN_IF_ERROR(folded);
      KVCSD_CO_RETURN_IF_ERROR(joined);
      fold.entries = sidx.entries - removed + fresh.size();
      // With every block retained, the old blob still describes it.
      if (rebuilt == 0) fold.sketch_blob = sidx.sketch_blob;
      sidx_rebuilt_total += rebuilt;
    }
  }

  // ---- Bloom ----
  // New keys are OR-ed into the serialized filter in place. A run with no
  // blocks was compacted EMPTY and holds the minimum filter, sized for no
  // keys: its filter is built afresh from the delta's live keys instead,
  // as a compaction's index stage builds one.
  next.pidx_bloom = ks->pidx_bloom;
  if (!next.pidx_bloom.empty()) {
    std::optional<BloomFilterBuilder> fresh;
    if (old_sketch.empty()) {
      fresh.emplace(static_cast<int>(config_.bloom_bits_per_key));
    }
    std::uint64_t bloom_key_bytes = 0;
    for (const KlogEntry& e : delta.entries) {
      if (e.tombstone) continue;
      if (fresh.has_value()) {
        fresh->AddKey(Slice(e.key));
      } else {
        BloomFilterAddKey(&next.pidx_bloom, Slice(e.key));
      }
      bloom_key_bytes += e.key.size();
    }
    if (fresh.has_value()) next.pidx_bloom = fresh->Finish();
    if (bloom_key_bytes > 0) {
      co_await cpu_.ComputeSliced(bloom_key_bytes,
                                  config_.costs.checksum_bytes_per_sec,
                                  sim::Activity::kRecompact);
    }
  }

  // The folded layout; the delta logs and the delta index start empty.
  next.run_entries = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(ks->run_entries) + run_entries_delta);
  output.committed = [this, fold_start, keys = delta.entries.size(),
                      pidx_retained, pidx_rebuilt, sidx_retained_total,
                      sidx_rebuilt_total] {
    stats().counter("device.recompact.delta_keys").Add(keys);
    stats().counter("device.recompact.pidx_blocks_retained").Add(pidx_retained);
    stats().counter("device.recompact.pidx_blocks_rebuilt").Add(pidx_rebuilt);
    stats()
        .counter("device.recompact.sidx_blocks_retained")
        .Add(sidx_retained_total);
    stats()
        .counter("device.recompact.sidx_blocks_rebuilt")
        .Add(sidx_rebuilt_total);
    stats().histogram("device.recompact.fold_ns").Record(sim_->Now() -
                                                         fold_start);
  };
  co_return std::move(output);
}

}  // namespace kvcsd::device
