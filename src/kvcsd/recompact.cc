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
//    ever costs false positives, never false negatives.
//
// Both index folds are pipelines: block reads (and the PIDX merge CPU) run
// gather_fanout wide through a read-ahead ring (sim::OrderedParallelFor),
// and one in-order IndexWriter (chain_writer.h) consumes the blocks in
// sketch order, issuing each append without waiting for the previous one
// to finish programming. The re-appended values go through the same
// windowed ChainWriter. The appends are the serial fold's appends, in the
// serial fold's order, so the output bytes and addresses are unchanged;
// only the time shrinks. Entries pack one region (a rebuilt PIDX block, a
// SIDX dirty region) at a time: a region never shares a block or an
// append with its neighbours.
//
// Commit protocol: the RECOMPACTING state is persisted before any output
// is written (recovery rolls it straight back to COMPACTED, delta intact,
// new clusters reclaimed as unreferenced); the fold then builds the mixed
// old + new sketch, writes a fresh metadata blob for each index it changed
// and commits them with one table persist. Past that point the delta logs,
// any old index cluster no retained block references and the superseded
// blobs are released, all in one concurrent-reset batch. A crash anywhere
// leaves either the old state (delta still pending) or the new state
// (delta folded) — never a blend.
#include <algorithm>
#include <map>
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

// One delta mutation prepared for the fold, in key order.
struct FoldItem {
  std::string key;
  bool tombstone = false;
  std::string value;           // loaded bytes (empty for a tombstone)
  std::uint64_t new_addr = 0;  // where the value was re-appended
};

struct PidxRec {
  std::string key;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
};

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

sim::Task<Status> Device::RunRecompaction(Keyspace* ks,
                                          std::vector<ClusterId>* scratch) {
  const Tick fold_start = sim_->Now();
  const std::uint32_t fanout = std::max<std::uint32_t>(config_.gather_fanout, 1);
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
  std::vector<FoldItem> items;
  items.reserve(ks->delta_index.size());
  std::vector<ClusterId> new_value_clusters;
  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.values");
    // Batch-load values that only survive as VLOG pointers (post-restart
    // entries); values written this power cycle ride inline.
    std::vector<ValueRef> refs;
    std::vector<std::size_t> ref_slot;
    for (const auto& [key, entry] : ks->delta_index) {
      FoldItem item;
      item.key = key;
      item.tombstone = entry.tombstone;
      if (!entry.tombstone) {
        if (entry.has_value) {
          item.value = entry.value;
        } else {
          refs.push_back(ValueRef{entry.vaddr, entry.vlen});
          ref_slot.push_back(items.size());
        }
      }
      items.push_back(std::move(item));
    }
    if (!refs.empty()) {
      auto values = co_await GatherValues(std::move(refs), sim::Activity::kRecompact);
      if (!values.ok()) co_return values.status();
      for (std::size_t i = 0; i < ref_slot.size(); ++i) {
        items[ref_slot[i]].value = std::move((*values)[i]);
      }
    }

    // ---- Re-append live delta values in key order to fresh clusters ----
    // Items [first, upto) go out as one append; their new addresses are
    // filled in when it lands.
    ChainWriter out(this, &new_value_clusters, ZoneType::kSortedValues,
                    sim::Activity::kRecompact);
    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    std::size_t chunk_first = 0;
    auto flush_values = [&](std::size_t upto) -> sim::Task<Status> {
      const std::size_t first = chunk_first;
      chunk_first = upto;
      if (chunk.empty()) co_return Status::Ok();
      std::string data = std::move(chunk);
      chunk.clear();
      chunk.reserve(config_.output_batch_bytes);
      co_return co_await out.Append(
          std::move(data), [&items, first, upto](std::uint64_t addr) {
            for (std::size_t i = first; i < upto; ++i) {
              if (items[i].tombstone) continue;
              items[i].new_addr = addr;
              addr += items[i].value.size();
            }
          });
    };
    std::uint64_t value_bytes = 0;
    Status appended = Status::Ok();
    for (std::size_t i = 0; i < items.size() && appended.ok(); ++i) {
      if (items[i].tombstone) continue;
      if (chunk.size() + items[i].value.size() > config_.output_batch_bytes &&
          !chunk.empty()) {
        appended = co_await flush_values(i);
      }
      chunk += items[i].value;
      value_bytes += items[i].value.size();
    }
    if (appended.ok()) appended = co_await flush_values(items.size());
    const Status joined = co_await out.Join();
    if (appended.ok()) appended = joined;
    scratch->insert(scratch->end(), new_value_clusters.begin(),
                    new_value_clusters.end());
    KVCSD_CO_RETURN_IF_ERROR(appended);
    co_await cpu_.ComputeBytes(value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- PIDX fold: rebuild only the blocks the delta keys land in ----
  const std::vector<SketchEntry>& old_sketch = ks->pidx_sketch;
  std::vector<ClusterId> new_pidx_clusters;
  std::vector<SketchEntry> new_sketch;
  new_sketch.reserve(old_sketch.size());
  std::int64_t run_entries_delta = 0;
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;
  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.pidx");
    // Delta keys per covering block, in key order. A key preceding every
    // pivot folds into block 0 (its rebuild simply grows a smaller pivot);
    // with no run at all, everything lands in one from-scratch region.
    std::vector<std::vector<const FoldItem*>> per_block(old_sketch.size());
    std::vector<const FoldItem*> orphan_items;  // run has no blocks
    for (const FoldItem& item : items) {
      if (old_sketch.empty()) {
        orphan_items.push_back(&item);
        continue;
      }
      std::size_t pos = SketchLowerBlock(old_sketch, item.key);
      if (pos >= old_sketch.size()) pos = 0;
      per_block[pos].push_back(&item);
    }
    std::vector<std::size_t> dirty;  // sketch positions to rebuild
    for (std::size_t pos = 0; pos < old_sketch.size(); ++pos) {
      if (!per_block[pos].empty()) dirty.push_back(pos);
    }

    // Two-pointer LWW merge of one dirty block with its delta keys.
    auto merge_block = [&](const std::vector<PidxRec>& old_recs,
                           const std::vector<const FoldItem*>& delta,
                           std::vector<PidxRec>* out) {
      std::size_t i = 0, j = 0;
      while (i < old_recs.size() || j < delta.size()) {
        if (j >= delta.size() ||
            (i < old_recs.size() && old_recs[i].key < delta[j]->key)) {
          out->push_back(old_recs[i]);
          ++i;
          continue;
        }
        const FoldItem* d = delta[j];
        const bool match = i < old_recs.size() && old_recs[i].key == d->key;
        if (match) ++i;
        if (d->tombstone) {
          if (match) --run_entries_delta;  // removed a run key
        } else {
          out->push_back(PidxRec{d->key, d->new_addr,
                                 static_cast<std::uint32_t>(d->value.size())});
          if (!match) ++run_entries_delta;  // inserted a new key
        }
        ++j;
      }
    };

    // Read stage, `fanout` wide: fetch dirty block d, merge it with its
    // delta keys, and charge that block's share of the merge CPU.
    auto rebuild = [&](std::size_t d) -> sim::Task<Result<std::vector<PidxRec>>> {
      const SketchEntry& entry = old_sketch[dirty[d]];
      auto block = co_await ReadIndexBlock(ks->id, entry, sim::Activity::kRecompact);
      if (!block.ok()) co_return block.status();
      compaction_stats_.bytes_read += entry.block_len;
      std::vector<PidxRec> old_recs;
      std::uint64_t fold_bytes = 0;
      KVCSD_CO_RETURN_IF_ERROR(wire::ForEachIndexEntry<wire::PidxEntry>(
          *block, [&](const wire::PidxEntry& parsed) {
            old_recs.push_back(
                PidxRec{parsed.key.ToString(), parsed.vaddr, parsed.vlen});
            fold_bytes += parsed.key.size() + 12;
            return true;
          }));
      std::vector<PidxRec> merged;
      merged.reserve(old_recs.size() + per_block[dirty[d]].size());
      merge_block(old_recs, per_block[dirty[d]], &merged);
      if (fold_bytes > 0) {
        co_await cpu_.ComputeBytes(fold_bytes, config_.costs.merge_bytes_per_sec,
                                   sim::Activity::kRecompact);
      }
      co_return merged;
    };

    // Write stage, in sketch order: carry the clean blocks before dirty
    // block d over by reference, then write d's rebuilt blocks.
    IndexWriter out(this, ZoneType::kPidx, &new_pidx_clusters, &new_sketch,
                    sim::Activity::kRecompact);
    auto write_region = [&out](const std::vector<PidxRec>& region)
        -> sim::Task<Status> {
      for (const PidxRec& rec : region) {
        if (out.AddPidx(rec.key, rec.vaddr, rec.vlen)) {
          KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
        }
      }
      co_return co_await out.Close();
    };
    std::size_t carried = 0;  // old blocks consumed so far
    bool mid_pidx_passed = false;
    auto write = [&](std::size_t d,
                     const std::vector<PidxRec>& merged) -> sim::Task<Status> {
      for (; carried < dirty[d]; ++carried) new_sketch.push_back(old_sketch[carried]);
      ++carried;
      KVCSD_CO_RETURN_IF_ERROR(co_await write_region(merged));
      if (!mid_pidx_passed && out.inflight() >= 2) {
        mid_pidx_passed = true;
        if (CrashPoint("recompact.mid_pidx")) {
          co_return Status::IoError("simulated power loss mid PIDX fold");
        }
      }
      co_return Status::Ok();
    };
    Status folded = co_await sim::OrderedParallelFor<std::vector<PidxRec>>(
        sim_, dirty.size(), fanout, rebuild, write);
    if (folded.ok()) {
      for (; carried < old_sketch.size(); ++carried) new_sketch.push_back(old_sketch[carried]);
      if (!orphan_items.empty()) {
        // Empty run: the delta becomes the run.
        std::vector<PidxRec> merged;
        merge_block({}, orphan_items, &merged);
        folded = co_await write_region(merged);
        ++pidx_rebuilt;
      }
    }
    Status joined = co_await out.Join();
    scratch->insert(scratch->end(), new_pidx_clusters.begin(),
                    new_pidx_clusters.end());
    KVCSD_CO_RETURN_IF_ERROR(folded);
    KVCSD_CO_RETURN_IF_ERROR(joined);
    pidx_retained = old_sketch.size() - dirty.size();
    pidx_rebuilt += dirty.size();
  }

  // ---- SIDX fold: stream all blocks, rewrite only dirty regions ----
  // Every delta key's old tuple (if any) is stale: a tombstone removes
  // it, an overwrite re-points it (and may change its secondary key).
  std::set<std::string> delta_keys;
  for (const FoldItem& item : items) delta_keys.insert(item.key);

  struct SidxFold {
    std::vector<ClusterId> new_clusters;
    std::vector<SketchEntry> new_sketch;
    std::uint64_t new_entries = 0;
    std::uint64_t retained = 0;
    std::uint64_t rebuilt = 0;
  };
  std::map<std::string, SidxFold> sidx_folds;
  std::uint64_t sidx_retained_total = 0;
  std::uint64_t sidx_rebuilt_total = 0;

  {
    sim::TraceSpan phase(sim_, trk_compaction_, "recompact.sidx");
    for (auto& [name, sidx] : ks->secondary_indexes) {
      SidxFold& fold = sidx_folds[name];
      const std::vector<SketchEntry>& sketch = sidx.sketch;

      // New tuples from the live delta values, sorted by (skey, pkey).
      std::vector<SidxTuple> fresh;
      for (const FoldItem& item : items) {
        if (item.tombstone) continue;
        auto skey = nvme::ExtractSecondaryKey(Slice(item.value), sidx.spec);
        if (!skey.ok()) co_return skey.status();
        fresh.push_back(SidxTuple{
            std::move(*skey), item.key, item.new_addr,
            static_cast<std::uint32_t>(item.value.size())});
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

      IndexWriter out(this, ZoneType::kSidx, &fold.new_clusters,
                      &fold.new_sketch, sim::Activity::kRecompact);
      std::vector<SidxTuple> region;  // surviving tuples of the open region
      bool region_open = false;
      std::size_t region_start = 0;
      std::size_t fresh_cursor = 0;
      std::uint64_t removed = 0;

      auto emit_region = [&](std::size_t region_end) -> sim::Task<Status> {
        // Merge the region's survivors with the fresh tuples whose
        // insertion span starts inside it, then re-pack as SIDX blocks.
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
        for (const SidxTuple& t : merged) {
          if (out.AddSidx(t)) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
        }
        co_return co_await out.Close();
      };

      // Read stage, `fanout` wide: fetch block pos and drop its stale tuples.
      auto scan = [&](std::size_t pos) -> sim::Task<Result<SidxBlockScan>> {
        auto block = co_await ReadIndexBlock(ks->id, sketch[pos], sim::Activity::kRecompact);
        if (!block.ok()) co_return block.status();
        compaction_stats_.bytes_read += sketch[pos].block_len;
        SidxBlockScan scanned;
        KVCSD_CO_RETURN_IF_ERROR(wire::ForEachIndexEntry<wire::SidxEntry>(
            *block, [&](const wire::SidxEntry& entry) {
              if (delta_keys.contains(entry.pkey.ToString())) {
                scanned.lost_tuple = true;
                ++removed;
              } else {
                scanned.survivors.push_back(
                    SidxTuple{entry.skey.ToString(), entry.pkey.ToString(),
                              entry.vaddr, entry.vlen});
              }
              return true;
            }));
        co_return scanned;
      };

      // Write stage, in sketch order: dirty blocks grow the open region,
      // a clean block closes it and is retained by reference.
      auto visit = [&](std::size_t pos, SidxBlockScan scanned) -> sim::Task<Status> {
        if (dirty[pos] || scanned.lost_tuple) {
          if (!region_open) {
            region_open = true;
            region_start = pos;
          }
          region.insert(region.end(),
                        std::make_move_iterator(scanned.survivors.begin()),
                        std::make_move_iterator(scanned.survivors.end()));
          ++fold.rebuilt;
          co_return Status::Ok();
        }
        if (region_open) {
          region_open = false;
          KVCSD_CO_RETURN_IF_ERROR(co_await emit_region(pos - 1));
        }
        fold.new_sketch.push_back(sketch[pos]);  // retained by reference
        ++fold.retained;
        co_return Status::Ok();
      };

      Status folded = co_await sim::OrderedParallelFor<SidxBlockScan>(
          sim_, sketch.size(), fanout, scan, visit);
      if (folded.ok() && region_open) {
        folded = co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1);
      }
      if (folded.ok() && fresh_cursor < fresh.size()) {
        // Remaining fresh tuples (empty index, or a tail span): one final
        // from-scratch region.
        region_start = sketch.size();
        folded = co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1);
        ++fold.rebuilt;
      }
      Status joined = co_await out.Join();
      scratch->insert(scratch->end(), fold.new_clusters.begin(),
                      fold.new_clusters.end());
      KVCSD_CO_RETURN_IF_ERROR(folded);
      KVCSD_CO_RETURN_IF_ERROR(joined);
      fold.new_entries = sidx.entries - removed + fresh.size();
      sidx_retained_total += fold.retained;
      sidx_rebuilt_total += fold.rebuilt;
    }
  }

  // ---- Bloom: fold the new keys into the serialized filter in place ----
  std::string new_bloom = ks->pidx_bloom;
  if (!new_bloom.empty()) {
    std::uint64_t bloom_key_bytes = 0;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      BloomFilterAddKey(&new_bloom, Slice(item.key));
      bloom_key_bytes += item.key.size();
    }
    if (bloom_key_bytes > 0) {
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kRecompact);
    }
  }

  // ---- Out-of-line metadata: a fresh blob for each index that changed ----
  // Written ahead of the commit snapshot that references them, as scratch;
  // the blobs they supersede die in the post-commit release batch.
  KeyspaceLayout next;
  next.pidx_blob = ks->pidx_blob;
  if (!items.empty()) {
    auto blob = co_await keyspace_manager_.WritePidxBlob(
        new_sketch, new_bloom, sim::Activity::kRecompact);
    if (!blob.ok()) co_return blob.status();
    scratch->push_back(blob->cluster);
    next.pidx_blob = *blob;
  }
  for (const auto& [name, sidx] : ks->secondary_indexes) {
    BlobRef& ref = next.secondary_indexes[name].sketch_blob;
    ref = sidx.sketch_blob;
    if (sidx_folds[name].rebuilt == 0) continue;  // every block retained
    auto blob = co_await keyspace_manager_.WriteSidxBlob(
        sidx_folds[name].new_sketch, sim::Activity::kRecompact);
    if (!blob.ok()) co_return blob.status();
    scratch->push_back(blob->cluster);
    ref = *blob;
  }

  // ---- Commit ----
  // Drain in-flight readers first: new queries block in AwaitQueryable
  // while the state is RECOMPACTING, and the commit below swaps clusters
  // and sketches that a still-running scan may be dereferencing.
  // The commit span ends at the persist, so the release after it gets its
  // own sibling span instead of nesting.
  std::optional<sim::TraceSpan> commit_phase;
  commit_phase.emplace(sim_, trk_compaction_, "recompact.commit");
  while (ks->active_readers > 0) {
    sim::Event& idle = ks->runtime.readers_idle;
    idle.Reset();
    if (ks->active_readers == 0) break;
    co_await idle.Wait();
  }

  if (CrashPoint("recompact.before_commit")) {
    co_return Status::IoError("simulated power loss before recompact commit");
  }

  // Each index chain keeps the old clusters a retained block still
  // references, followed by the fold's fresh ones; the rest of the old
  // chain dies in the post-commit release. A cluster is referenced iff one
  // of its zones holds a block of the new sketch; new-cluster zones can
  // never alias old ones.
  const std::uint64_t zone_size = ssd_.zone_size();
  auto chain = [&](const std::vector<ClusterId>& old_chain,
                   const std::vector<SketchEntry>& sketch,
                   const std::vector<ClusterId>& fresh) {
    std::set<std::uint64_t> zones;
    for (const SketchEntry& e : sketch) zones.insert(e.block_addr / zone_size);
    std::vector<ClusterId> out;
    for (ClusterId id : old_chain) {
      const std::vector<std::uint32_t>& own = zone_manager_.cluster_zones(id);
      if (std::any_of(own.begin(), own.end(),
                      [&](std::uint32_t z) { return zones.contains(z); })) {
        out.push_back(id);
      }
    }
    out.insert(out.end(), fresh.begin(), fresh.end());
    return out;
  };

  // The folded layout; the delta logs and the delta index start empty.
  // Every old sorted-value cluster stays: retained and rebuilt blocks alike
  // still point at unchanged run values.
  next.pidx_clusters = chain(ks->pidx_clusters, new_sketch, new_pidx_clusters);
  next.sorted_value_clusters = ks->sorted_value_clusters;
  next.sorted_value_clusters.insert(next.sorted_value_clusters.end(),
                                    new_value_clusters.begin(),
                                    new_value_clusters.end());
  next.pidx_sketch = std::move(new_sketch);
  next.pidx_bloom = std::move(new_bloom);
  next.run_entries = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(ks->run_entries) + run_entries_delta);
  next.num_kvs = next.run_entries;
  for (const auto& [name, sidx] : ks->secondary_indexes) {
    SidxFold& fold = sidx_folds[name];
    SecondaryIndex& folded = next.secondary_indexes[name];
    folded.spec = sidx.spec;
    folded.sidx_clusters =
        chain(sidx.sidx_clusters, fold.new_sketch, fold.new_clusters);
    folded.sketch = std::move(fold.new_sketch);
    folded.entries = fold.new_entries;
  }
  auto old = co_await CommitLayout(ks, std::move(next), scratch);
  if (!old.ok()) co_return old.status();
  commit_phase.reset();

  stats().counter("device.recompact.done").Increment();
  stats().counter("device.recompact.delta_keys").Add(items.size());
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

  // Past the commit point the fold HAS happened; the delta logs, any old
  // index cluster with no retained block and every superseded metadata
  // blob are garbage (a crash here leaks them to recovery's
  // unreferenced-cluster sweep).
  (void)CrashPoint("recompact.after_commit");
  sim::TraceSpan release(sim_, trk_compaction_, "recompact.release");
  co_await ReleaseSuperseded(*old, *ks);
  co_return Status::Ok();
}

}  // namespace kvcsd::device
