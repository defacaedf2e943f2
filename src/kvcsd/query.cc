// Offloaded query processing (paper §V "Query Processing").
//
// All queries start from the in-memory pivot sketch in the keyspace table:
// binary-search the sketch, read the covering 4 KB PIDX/SIDX block(s) from
// flash, then gather exactly the matching values. Because everything runs
// in the device, only results travel back over PCIe — the mechanism behind
// the paper's selectivity-dependent speedups (Fig. 12).
//
// Read acceleration (DESIGN.md §10):
//   - ReadIndexBlock fronts a DRAM index-block cache; a hit pays only the
//     in-block search CPU, no flash read.
//   - QueryPoint consults the keyspace's compaction-built bloom filter so
//     negative lookups usually skip flash entirely.
//   - Range scans keep the next sketch block's read in flight while the
//     current one is parsed (one-slot-ahead pipeline).
//   - GatherValues dedupes identical refs, coalesces address-adjacent
//     reads, and fans the coalesced ranges out across NAND channels.
//
// Mutability (DESIGN.md §12): a COMPACTED keyspace carries a delta index
// of post-compaction mutations. Point lookups consult it first (it is
// strictly newer than the run); range and secondary scans two-way merge
// the sorted run with the key-ordered delta under last-writer-wins, with
// tombstones suppressing run entries. While an incremental re-compaction
// folds the delta back in, queries wait in AwaitQueryable and in-flight
// scans hold a reader count the fold's commit drains before swapping the
// on-flash structures.
#include <algorithm>

#include "common/bloom.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Pins the keyspace's COMPACTED structures for the lifetime of one query
// coroutine; the destructor runs on every exit path (including error
// co_returns) and wakes a re-compaction commit waiting for readers to
// drain.
class ReaderGuard {
 public:
  ReaderGuard(Keyspace* ks, sim::Event* idle) : ks_(ks), idle_(idle) {
    ++ks_->active_readers;
  }
  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;
  ~ReaderGuard() {
    if (--ks_->active_readers == 0) idle_->Set();
  }

 private:
  Keyspace* ks_;
  sim::Event* idle_;
};

// Index of the sketch block that could contain `key`: the last block whose
// pivot (first key) is <= key. Returns sketch.size() if key precedes all.
// Only valid when pivots are unique (primary keys); range queries over
// secondary keys must use SketchRangeStart instead.
std::size_t SketchLowerBlock(const std::vector<SketchEntry>& sketch,
                             const std::string& key) {
  auto it = std::upper_bound(
      sketch.begin(), sketch.end(), key,
      [](const std::string& k, const SketchEntry& e) { return k < e.pivot; });
  if (it == sketch.begin()) return sketch.size();  // key < first pivot
  return static_cast<std::size_t>(it - sketch.begin()) - 1;
}

// First block that can contain entries >= lo, correct even when several
// consecutive blocks share the same pivot (tied secondary keys): position
// at the FIRST block whose pivot >= lo and step back one block, since the
// preceding block's tail may still hold keys >= lo.
std::size_t SketchRangeStart(const std::vector<SketchEntry>& sketch,
                             const std::string& lo) {
  auto it = std::lower_bound(
      sketch.begin(), sketch.end(), lo,
      [](const SketchEntry& e, const std::string& k) { return e.pivot < k; });
  if (it != sketch.begin()) --it;
  return static_cast<std::size_t>(it - sketch.begin());
}

}  // namespace

std::size_t SketchBlocksInRange(const std::vector<SketchEntry>& sketch,
                                const std::string& lo, const std::string& hi) {
  if (sketch.empty()) return 0;
  const std::size_t start = SketchRangeStart(sketch, lo);
  // First block whose pivot is past `hi`: the scans' stop condition.
  const auto stop = std::upper_bound(
      sketch.begin(), sketch.end(), hi,
      [](const std::string& k, const SketchEntry& e) { return k < e.pivot; });
  const auto end = static_cast<std::size_t>(stop - sketch.begin());
  return end > start ? end - start : 0;
}

sim::Task<Result<std::string>> Device::ReadIndexBlock(
    std::uint64_t keyspace_id, const SketchEntry& entry, sim::Activity act) {
  if (index_cache_.enabled()) {
    std::string cached;
    if (index_cache_.Lookup(keyspace_id, entry.block_addr, &cached)) {
      stats().counter("device.read_cache.hits").Increment();
      co_await cpu_.Compute(config_.costs.block_search, act);
      co_return cached;
    }
    stats().counter("device.read_cache.misses").Increment();
  }
  std::string block(entry.block_len, '\0');
  co_await cpu_.Compute(config_.costs.io_path_overhead, act);
  KVCSD_CO_RETURN_IF_ERROR(co_await ssd_.Read(
      entry.block_addr,
      std::span<std::byte>(reinterpret_cast<std::byte*>(block.data()),
                           block.size()),
      act));
  co_await cpu_.Compute(config_.costs.block_search, act);
  index_cache_.Insert(keyspace_id, entry.block_addr, block);
  co_return block;
}

sim::Task<void> Device::PrefetchIndexBlock(std::uint64_t keyspace_id,
                                           SketchEntry entry,
                                           IndexPrefetch* slot,
                                           sim::Activity act) {
  slot->block = co_await ReadIndexBlock(keyspace_id, entry, act);
  slot->done->Set();
}

sim::Task<Result<std::vector<std::string>>> Device::GatherValues(
    std::vector<ValueRef> refs, sim::Activity act) {
  std::vector<std::string> out(refs.size());
  if (refs.empty()) co_return out;

  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&refs](std::size_t a, std::size_t b) {
    if (refs[a].addr != refs[b].addr) return refs[a].addr < refs[b].addr;
    if (refs[a].len != refs[b].len) return refs[a].len < refs[b].len;
    return a < b;
  });

  // Dedupe identical (addr, len) refs: repeated hits on the same value
  // (e.g. retried point gets batched together) must not issue redundant
  // flash reads or break a coalesced range at the size limit.
  std::vector<std::size_t> uniq;  // indexes into refs, one per distinct ref
  std::vector<std::size_t> owner(refs.size());  // refs index -> uniq slot
  uniq.reserve(order.size());
  std::uint64_t dup_refs = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const ValueRef& r = refs[order[k]];
    if (uniq.empty() || refs[uniq.back()].addr != r.addr ||
        refs[uniq.back()].len != r.len) {
      uniq.push_back(order[k]);
    } else {
      ++dup_refs;
    }
    owner[order[k]] = uniq.size() - 1;
  }

  // Coalesce distinct refs into ranges whose gap stays below a page, that
  // stay inside one zone, and that stay under 1 MiB. Plain CPU work: the
  // I/O is issued afterwards so ranges on different NAND channels overlap.
  const std::uint64_t zone_size = ssd_.zone_size();
  constexpr std::uint64_t kMaxGap = 4096;
  constexpr std::uint64_t kMaxRange = MiB(1);

  struct Range {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::size_t first = 0;  // [first, last) into uniq
    std::size_t last = 0;
  };
  std::vector<Range> ranges;
  std::size_t i = 0;
  while (i < uniq.size()) {
    const std::uint64_t range_start = refs[uniq[i]].addr;
    const std::uint64_t zone_end = (range_start / zone_size + 1) * zone_size;
    std::uint64_t range_end = range_start + refs[uniq[i]].len;
    std::size_t j = i + 1;
    while (j < uniq.size()) {
      const ValueRef& next = refs[uniq[j]];
      const std::uint64_t next_end = next.addr + next.len;
      if (next.addr > range_end + kMaxGap) break;
      if (next_end > zone_end) break;
      if (next_end - range_start > kMaxRange) break;
      range_end = std::max(range_end, next_end);
      ++j;
    }
    ranges.push_back(Range{range_start, range_end, i, j});
    i = j;
  }

  stats().counter("device.gather.refs").Add(refs.size());
  stats().counter("device.gather.dup_refs").Add(dup_refs);
  stats().counter("device.gather.ranges").Add(ranges.size());

  // Fan the range reads out with a bounded inflight. Each worker writes
  // disjoint uniq_values slots, so results are independent of completion
  // order — parallelism changes timing, never contents.
  std::vector<std::string> uniq_values(uniq.size());
  auto read_range = [&](std::size_t r) -> sim::Task<Status> {
    const Range& range = ranges[r];
    std::string buffer(range.end - range.start, '\0');
    co_await cpu_.Compute(config_.costs.io_path_overhead, act);
    KVCSD_CO_RETURN_IF_ERROR(co_await ssd_.Read(
        range.start,
        std::span<std::byte>(reinterpret_cast<std::byte*>(buffer.data()),
                             buffer.size()),
        act));
    for (std::size_t u = range.first; u < range.last; ++u) {
      const ValueRef& ref = refs[uniq[u]];
      uniq_values[u] = buffer.substr(ref.addr - range.start, ref.len);
    }
    co_return Status::Ok();
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await sim::ParallelFor(
      sim_, ranges.size(), std::max<std::uint32_t>(config_.gather_fanout, 1),
      read_range));

  for (std::size_t k = 0; k < refs.size(); ++k) out[k] = uniq_values[owner[k]];
  co_return out;
}

sim::Task<Status> Device::AwaitQueryable(Keyspace* ks) {
  // A re-compaction is transparent to readers: wait it out rather than
  // failing. Any other non-COMPACTED state is a caller error, same as
  // before keyspaces were mutable.
  while (ks->state == KeyspaceState::kRecompacting) {
    co_await CompactionDone(ks->id)->Wait();
  }
  if (ks->state != KeyspaceState::kCompacted) {
    co_return Status::FailedPrecondition(
        "keyspace is not queryable (state " +
        std::string(KeyspaceStateName(ks->state)) + ")");
  }
  co_return Status::Ok();
}

sim::Task<Result<std::string>> Device::QueryPoint(Keyspace* ks,
                                                  const std::string& key) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks, ReadersIdle(ks->id));
  sim::TraceSpan span(sim_, trk_query_, "point_lookup");
  // The delta index is authoritative for every key it holds — strictly
  // newer than anything in the run.
  if (auto it = ks->delta_index.find(key); it != ks->delta_index.end()) {
    co_await cpu_.Compute(config_.costs.block_search,
                          sim::Activity::kHostRead);
    if (it->second.tombstone) {
      span.Arg("src", "delta_tombstone");
      stats().counter("device.query.delta_hits").Increment();
      co_return Status::NotFound();
    }
    span.Arg("src", "delta");
    stats().counter("device.query.delta_hits").Increment();
    co_return co_await LoadDeltaValue(it->second);
  }
  // Bloom first: a definite negative answers from DRAM alone, skipping
  // both the index-block read and the value gather.
  bool bloom_said_maybe = false;
  if (!ks->pidx_bloom.empty()) {
    co_await cpu_.Compute(config_.costs.bloom_check,
                          sim::Activity::kHostRead);
    if (!BloomFilterMayContain(Slice(ks->pidx_bloom), Slice(key))) {
      stats().counter("device.bloom.negative").Increment();
      span.Arg("src", "bloom_negative");
      co_return Status::NotFound();
    }
    bloom_said_maybe = true;
    stats().counter("device.bloom.maybe").Increment();
  }
  const std::size_t pos = SketchLowerBlock(ks->pidx_sketch, key);
  if (pos >= ks->pidx_sketch.size()) {
    span.Arg("src", "miss");
    co_return Status::NotFound();
  }

  auto block = co_await ReadIndexBlock(ks->id, ks->pidx_sketch[pos]);
  if (!block.ok()) co_return block.status();
  std::uint16_t count = 0;
  Slice in;
  if (!wire::OpenIndexBlock(*block, &count, &in)) {
    co_return Status::Corruption("undersized PIDX block");
  }
  for (std::uint16_t i = 0; i < count; ++i) {
    wire::PidxEntry entry;
    if (!wire::ParsePidxEntry(&in, &entry)) {
      co_return Status::Corruption("bad PIDX block");
    }
    if (entry.key == Slice(key)) {
      std::vector<ValueRef> one;
      one.push_back(ValueRef{entry.vaddr, entry.vlen});
      auto values = co_await GatherValues(std::move(one));
      if (!values.ok()) co_return values.status();
      span.Arg("src", "run");
      co_return std::move((*values)[0]);
    }
    if (Slice(key) < entry.key) break;  // sorted: key is absent
  }
  if (bloom_said_maybe) {
    stats().counter("device.bloom.false_positive").Increment();
  }
  span.Arg("src", "miss");
  co_return Status::NotFound();
}

sim::Task<Status> Device::QueryPrimaryRange(
    Keyspace* ks, const std::string& lo, const std::string& hi,
    std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    sim::Activity act) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks, ReadersIdle(ks->id));

  // Snapshot the in-range slice of the delta (the map is key-ordered, so
  // this is already sorted). Every in-range tombstone can suppress one run
  // row, so the run scan collects that many extra rows to keep `limit`
  // honest; the merge below trims back to `limit`. DeltaEntry pointers
  // stay valid across awaits: the map is node-based and the re-compaction
  // that clears it drains active_readers first.
  std::vector<std::pair<std::string, const DeltaEntry*>> delta_rows;
  std::uint32_t scan_limit = limit;
  for (auto it = ks->delta_index.lower_bound(lo);
       it != ks->delta_index.end() && it->first <= hi; ++it) {
    delta_rows.emplace_back(it->first, &it->second);
    if (limit != 0 && it->second.tombstone) ++scan_limit;
  }

  const std::vector<SketchEntry>& sketch = ks->pidx_sketch;
  std::size_t pos = sketch.empty() ? 0 : SketchRangeStart(sketch, lo);

  // Two alternating prefetch slots keep block pos+1's flash read in
  // flight while block pos is awaited and parsed; the pivot guard below
  // never fetches past `hi`, so at most one read (a mid-block limit cut)
  // is ever wasted. All error exits fall through the drain below — the
  // slots live in this frame and a detached prefetch must not outlive it.
  IndexPrefetch slots[2];
  auto issue = [&](std::size_t p) {
    IndexPrefetch& s = slots[p % 2];
    s.active = true;
    s.pos = p;
    if (!s.done) {
      s.done = std::make_unique<sim::Event>(sim_);
    } else {
      s.done->Reset();
    }
    sim_->Spawn(PrefetchIndexBlock(ks->id, sketch[p], &s, act));
  };

  Status scan_status = Status::Ok();
  std::vector<std::pair<std::string, ValueRef>> matches;
  std::string prev_key;
  bool have_prev = false;
  for (; pos < sketch.size(); ++pos) {
    if (sketch[pos].pivot > hi) break;
    Result<std::string> block = Status::Aborted("unread");
    if (config_.index_prefetch) {
      IndexPrefetch& cur = slots[pos % 2];
      if (cur.active && cur.pos != pos) {  // stale slot: drain before reuse
        co_await cur.done->Wait();
        cur.active = false;
      }
      if (!cur.active) issue(pos);
      if (pos + 1 < sketch.size() && !(sketch[pos + 1].pivot > hi) &&
          !slots[(pos + 1) % 2].active) {
        stats().counter("device.prefetch.issued").Increment();
        issue(pos + 1);
      }
      co_await cur.done->Wait();
      cur.active = false;
      block = std::move(cur.block);
    } else {
      block = co_await ReadIndexBlock(ks->id, sketch[pos], act);
    }
    if (!block.ok()) {
      scan_status = block.status();
      break;
    }
    std::uint16_t count = 0;
    Slice in;
    if (!wire::OpenIndexBlock(*block, &count, &in)) {
      scan_status = Status::Corruption("undersized PIDX block");
      break;
    }
    bool past_hi = false;
    for (std::uint16_t i = 0; i < count; ++i) {
      wire::PidxEntry entry;
      if (!wire::ParsePidxEntry(&in, &entry)) {
        scan_status = Status::Corruption("bad PIDX block");
        break;
      }
      // The merge emits PIDX entries in nondecreasing key order across
      // block boundaries; a violation means a corrupt or misdirected
      // block and would silently mis-cut `limit`, so fail loudly.
      if (have_prev && entry.key < Slice(prev_key)) {
        scan_status = Status::Corruption("PIDX entries out of key order");
        break;
      }
      prev_key = entry.key.ToString();
      have_prev = true;
      if (entry.key < Slice(lo)) continue;
      if (Slice(hi) < entry.key) {
        past_hi = true;
        break;
      }
      matches.emplace_back(entry.key.ToString(),
                           ValueRef{entry.vaddr, entry.vlen});
      if (scan_limit != 0 && matches.size() >= scan_limit) {
        past_hi = true;
        break;
      }
    }
    if (!scan_status.ok() || past_hi) break;
  }
  for (IndexPrefetch& s : slots) {
    if (s.active) {
      co_await s.done->Wait();
      s.active = false;
      stats().counter("device.prefetch.wasted").Increment();
    }
  }
  KVCSD_CO_RETURN_IF_ERROR(scan_status);

  // Two-way merge with the delta snapshot: the delta wins ties (strictly
  // newer), tombstones suppress their run rows, and delta-only keys slot
  // into key order.
  struct Row {
    std::string key;
    ValueRef ref{0, 0};
    const DeltaEntry* delta = nullptr;
  };
  std::vector<Row> rows;
  rows.reserve(matches.size() + delta_rows.size());
  std::size_t ri = 0;
  std::size_t di = 0;
  while ((ri < matches.size() || di < delta_rows.size()) &&
         (limit == 0 || rows.size() < limit)) {
    const bool run_left = ri < matches.size();
    const bool delta_left = di < delta_rows.size();
    if (delta_left && (!run_left || delta_rows[di].first <= matches[ri].first)) {
      if (run_left && delta_rows[di].first == matches[ri].first) {
        ++ri;  // the run row is stale
      }
      const DeltaEntry* d = delta_rows[di].second;
      if (!d->tombstone) {
        rows.push_back(Row{delta_rows[di].first, ValueRef{0, 0}, d});
      }
      ++di;
    } else {
      rows.push_back(
          Row{std::move(matches[ri].first), matches[ri].second, nullptr});
      ++ri;
    }
  }

  // One batched gather covers everything that lives on flash: run values
  // plus delta values that only survive as VLOG pointers after a power
  // cycle. Inline delta values copy straight from DRAM.
  std::vector<ValueRef> refs;
  std::vector<std::size_t> ref_slot;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].delta == nullptr) {
      refs.push_back(rows[r].ref);
      ref_slot.push_back(r);
    } else if (!rows[r].delta->has_value && rows[r].delta->vlen > 0) {
      refs.push_back(ValueRef{rows[r].delta->vaddr, rows[r].delta->vlen});
      ref_slot.push_back(r);
    }
  }
  auto values = co_await GatherValues(std::move(refs), act);
  if (!values.ok()) co_return values.status();
  std::vector<std::string> vals(rows.size());
  for (std::size_t k = 0; k < ref_slot.size(); ++k) {
    vals[ref_slot[k]] = std::move((*values)[k]);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].delta != nullptr && rows[r].delta->has_value) {
      vals[r] = rows[r].delta->value;
    }
  }
  out->reserve(out->size() + rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out->emplace_back(std::move(rows[r].key), std::move(vals[r]));
  }
  co_return Status::Ok();
}

sim::Task<Status> Device::QuerySecondaryRange(
    Keyspace* ks, const std::string& index_name, const std::string& lo,
    const std::string& hi, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    sim::Activity act) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks, ReadersIdle(ks->id));
  auto sidx_it = ks->secondary_indexes.find(index_name);
  if (sidx_it == ks->secondary_indexes.end()) {
    co_return Status::NotFound("no such secondary index: " + index_name);
  }
  const SecondaryIndex& sidx = sidx_it->second;

  // Every delta key's run tuple (if any) is stale — an overwrite may have
  // moved the row's secondary key, a tombstone removed it — so the scan
  // below drops run tuples whose pkey appears in the delta and this loop
  // contributes the replacement tuples: load each live delta value,
  // extract + order-encode its secondary key, keep the in-range ones.
  // Any delta key may hide one run tuple anywhere in range, so the scan
  // over-collects by the delta size to keep `limit` honest.
  struct FreshTuple {
    std::string skey;
    std::string pkey;
    std::string value;
  };
  std::vector<FreshTuple> fresh;
  std::uint32_t scan_limit = limit;
  for (const auto& [pkey, entry] : ks->delta_index) {
    if (limit != 0) ++scan_limit;
    if (entry.tombstone) continue;
    auto value = co_await LoadDeltaValue(entry, act);
    if (!value.ok()) co_return value.status();
    if (sidx.spec.value_offset + sidx.spec.value_length > value->size()) {
      co_return Status::InvalidArgument("secondary key range beyond value");
    }
    auto skey = nvme::EncodeSecondaryKeyBytes(
        Slice(value->data() + sidx.spec.value_offset, sidx.spec.value_length),
        sidx.spec);
    if (!skey.ok()) co_return skey.status();
    if (*skey < lo || hi < *skey) continue;
    fresh.push_back(FreshTuple{std::move(*skey), pkey, std::move(*value)});
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const FreshTuple& a, const FreshTuple& b) {
              if (a.skey != b.skey) return a.skey < b.skey;
              return a.pkey < b.pkey;
            });

  const std::vector<SketchEntry>& sketch = sidx.sketch;
  std::size_t pos = sketch.empty() ? 0 : SketchRangeStart(sketch, lo);

  IndexPrefetch slots[2];
  auto issue = [&](std::size_t p) {
    IndexPrefetch& s = slots[p % 2];
    s.active = true;
    s.pos = p;
    if (!s.done) {
      s.done = std::make_unique<sim::Event>(sim_);
    } else {
      s.done->Reset();
    }
    sim_->Spawn(PrefetchIndexBlock(ks->id, sketch[p], &s, act));
  };

  Status scan_status = Status::Ok();
  struct RunTuple {
    std::string skey;
    std::string pkey;
    ValueRef ref;
  };
  std::vector<RunTuple> matches;
  // SIDX blocks are globally sorted by (skey, pkey) — SidxMergeToBlocks
  // emits them in exactly that order — so when `limit` lands inside a run
  // of tied secondary keys, the cut is deterministic: the survivors are
  // always the lexicographically-smallest primary keys of the tie,
  // independent of core count, gather fan-out, or cache state. Verify the
  // invariant while scanning; a violation would silently randomize the
  // cut, so it fails loudly as corruption.
  std::string prev_skey;
  std::string prev_pkey;
  bool have_prev = false;
  for (; pos < sketch.size(); ++pos) {
    if (sketch[pos].pivot > hi) break;
    Result<std::string> block = Status::Aborted("unread");
    if (config_.index_prefetch) {
      IndexPrefetch& cur = slots[pos % 2];
      if (cur.active && cur.pos != pos) {  // stale slot: drain before reuse
        co_await cur.done->Wait();
        cur.active = false;
      }
      if (!cur.active) issue(pos);
      if (pos + 1 < sketch.size() && !(sketch[pos + 1].pivot > hi) &&
          !slots[(pos + 1) % 2].active) {
        stats().counter("device.prefetch.issued").Increment();
        issue(pos + 1);
      }
      co_await cur.done->Wait();
      cur.active = false;
      block = std::move(cur.block);
    } else {
      block = co_await ReadIndexBlock(ks->id, sketch[pos], act);
    }
    if (!block.ok()) {
      scan_status = block.status();
      break;
    }
    std::uint16_t count = 0;
    Slice in;
    if (!wire::OpenIndexBlock(*block, &count, &in)) {
      scan_status = Status::Corruption("undersized SIDX block");
      break;
    }
    bool past_hi = false;
    for (std::uint16_t i = 0; i < count; ++i) {
      wire::SidxEntry entry;
      if (!wire::ParseSidxEntry(&in, &entry)) {
        scan_status = Status::Corruption("bad SIDX block");
        break;
      }
      if (have_prev && (entry.skey < Slice(prev_skey) ||
                        (entry.skey == Slice(prev_skey) &&
                         entry.pkey < Slice(prev_pkey)))) {
        scan_status =
            Status::Corruption("SIDX entries out of (skey, pkey) order");
        break;
      }
      prev_skey = entry.skey.ToString();
      prev_pkey = entry.pkey.ToString();
      have_prev = true;
      if (entry.skey < Slice(lo)) continue;
      if (Slice(hi) < entry.skey) {
        past_hi = true;
        break;
      }
      if (ks->delta_index.contains(entry.pkey.ToString())) {
        continue;  // stale: this row was overwritten or deleted
      }
      matches.push_back(RunTuple{entry.skey.ToString(), entry.pkey.ToString(),
                                 ValueRef{entry.vaddr, entry.vlen}});
      if (scan_limit != 0 && matches.size() >= scan_limit) {
        past_hi = true;
        break;
      }
    }
    if (!scan_status.ok() || past_hi) break;
  }
  for (IndexPrefetch& s : slots) {
    if (s.active) {
      co_await s.done->Wait();
      s.active = false;
      stats().counter("device.prefetch.wasted").Increment();
    }
  }
  KVCSD_CO_RETURN_IF_ERROR(scan_status);

  // Merge run survivors with the fresh delta tuples by (skey, pkey) — the
  // two sets are disjoint by construction (run tuples whose pkey is in the
  // delta were dropped above) — and cut at `limit`.
  struct OutRow {
    std::string pkey;
    bool from_fresh = false;
    std::size_t fresh_idx = 0;
    ValueRef ref{0, 0};
  };
  std::vector<OutRow> rows;
  rows.reserve(matches.size() + fresh.size());
  std::size_t ri = 0;
  std::size_t fi = 0;
  while ((ri < matches.size() || fi < fresh.size()) &&
         (limit == 0 || rows.size() < limit)) {
    bool take_fresh;
    if (ri >= matches.size()) {
      take_fresh = true;
    } else if (fi >= fresh.size()) {
      take_fresh = false;
    } else {
      const FreshTuple& f = fresh[fi];
      const RunTuple& m = matches[ri];
      take_fresh =
          f.skey < m.skey || (f.skey == m.skey && f.pkey < m.pkey);
    }
    if (take_fresh) {
      rows.push_back(OutRow{std::move(fresh[fi].pkey), true, fi, {0, 0}});
      ++fi;
    } else {
      rows.push_back(
          OutRow{std::move(matches[ri].pkey), false, 0, matches[ri].ref});
      ++ri;
    }
  }

  std::vector<ValueRef> refs;
  std::vector<std::size_t> ref_slot;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].from_fresh) {
      refs.push_back(rows[r].ref);
      ref_slot.push_back(r);
    }
  }
  auto values = co_await GatherValues(std::move(refs), act);
  if (!values.ok()) co_return values.status();
  std::vector<std::string> vals(rows.size());
  for (std::size_t k = 0; k < ref_slot.size(); ++k) {
    vals[ref_slot[k]] = std::move((*values)[k]);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].from_fresh) vals[r] = std::move(fresh[rows[r].fresh_idx].value);
  }
  out->reserve(out->size() + rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out->emplace_back(std::move(rows[r].pkey), std::move(vals[r]));
  }
  co_return Status::Ok();
}

}  // namespace kvcsd::device
