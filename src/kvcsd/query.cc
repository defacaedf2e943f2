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
//     in-block search CPU, no flash read, and a miss on a block already
//     being read waits for that read instead of issuing its own.
//   - QueryPoint consults the keyspace's compaction-built bloom filter so
//     negative lookups usually skip flash entirely.
//   - Both range scans run through one sketch walk (WalkSketch) that
//     keeps the next block's read in flight while the current one is
//     decoded, and end in one value-gather tail (FetchRows).
//   - On an index-cache miss, QueryPoint reads the PIDX block and the
//     SORTED_VALUES spans its sketch entry records (one per zone) at
//     once, and slices the value out of the span that holds it; a value
//     outside every span, or a failed span read, falls back to
//     GatherValues.
//   - GatherValues dedupes identical refs, coalesces address-adjacent
//     reads, and sends the coalesced ranges round-robin over their NAND
//     channels, so the reads in flight spread across a cluster's zones.
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
#include <numeric>
#include <optional>

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
  explicit ReaderGuard(Keyspace* ks) : ks_(ks) { ++ks_->active_readers; }
  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;
  ~ReaderGuard() {
    if (--ks_->active_readers == 0) ks_->runtime.readers_idle.Set();
  }

 private:
  Keyspace* ks_;
};

// Where an index entry sits in its blocks' order, in the shape SidxOrder
// compares: PIDX entries sort by key alone, SIDX entries by (skey, pkey).
// Range scans cut on `skey`.
struct IndexPosition {
  Slice skey;
  Slice pkey;
};
IndexPosition PositionOf(const wire::PidxEntry& e) { return {e.key, Slice()}; }
IndexPosition PositionOf(const wire::SidxEntry& e) {
  return {e.skey, e.pkey};
}

}  // namespace

std::size_t SketchLowerBlock(const std::vector<SketchEntry>& sketch,
                             const std::string& key) {
  auto it = std::upper_bound(
      sketch.begin(), sketch.end(), key,
      [](const std::string& k, const SketchEntry& e) { return k < e.pivot; });
  if (it == sketch.begin()) return sketch.size();  // key < first pivot
  return static_cast<std::size_t>(it - sketch.begin()) - 1;
}

std::size_t SketchRangeStart(const std::vector<SketchEntry>& sketch,
                             const std::string& lo) {
  auto it = std::lower_bound(
      sketch.begin(), sketch.end(), lo,
      [](const SketchEntry& e, const std::string& k) { return e.pivot < k; });
  if (it != sketch.begin()) --it;
  return static_cast<std::size_t>(it - sketch.begin());
}

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
  const BlockKey key{keyspace_id, entry.block_addr};
  std::shared_ptr<BlockRead> mine;  // set when this call leads the read
  if (index_cache_.enabled()) {
    std::string cached;
    if (index_cache_.Lookup(keyspace_id, entry.block_addr, &cached)) {
      stats().counter("device.read_cache.hits").Increment();
      co_await cpu_.Compute(config_.costs.block_search, act);
      co_return cached;
    }
    stats().counter("device.read_cache.misses").Increment();
    // Single flight: a miss on a block whose flash read is in flight
    // waits for that read. A failed shared read is not handed on: the
    // waiter reads for itself, so one flash error fails one command.
    if (auto it = block_reads_.find(key); it != block_reads_.end()) {
      const std::shared_ptr<BlockRead> leader = it->second;
      stats().counter("device.read_cache.inflight_joins").Increment();
      co_await sim::BookWait(sim_, sim::Layer::kNandWait, leader->done.Wait());
      if (leader->block.ok()) {
        co_await cpu_.Compute(config_.costs.block_search, act);
        co_return *leader->block;
      }
    }
    auto [it, fresh] = block_reads_.try_emplace(key);
    if (fresh) {
      it->second = std::make_shared<BlockRead>(sim_);
      mine = it->second;
    }
  }
  std::string block(entry.block_len, '\0');
  co_await cpu_.Compute(config_.costs.io_path_overhead, act);
  const Status read = co_await ssd_.Read(
      entry.block_addr,
      std::span<std::byte>(reinterpret_cast<std::byte*>(block.data()),
                           block.size()),
      act);
  if (mine != nullptr) {
    mine->block = read.ok() ? Result<std::string>(block)
                            : Result<std::string>(read);
    mine->done.Set();
  }
  if (read.ok()) {
    co_await cpu_.Compute(config_.costs.block_search, act);
    index_cache_.Insert(keyspace_id, entry.block_addr, block);
  }
  // Cached (or failed): a later miss reads afresh.
  if (mine != nullptr) block_reads_.erase(key);
  KVCSD_CO_RETURN_IF_ERROR(read);
  co_return block;
}

sim::Task<void> Device::PrefetchIndexBlock(std::uint64_t keyspace_id,
                                           SketchEntry entry,
                                           IndexPrefetch* slot,
                                           sim::Activity act) {
  co_await sim::BindLedger(slot->ledger ? &*slot->ledger : nullptr);
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
      if (next.addr > range_end + wire::kMaxValueGap) break;
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

  // Read order: round-robin over the ranges' NAND channels — each
  // channel's first range, then each channel's second, and so on, every
  // round in address order. Address order alone would put every read in
  // flight on the one or two zones of a cluster with the lowest addresses.
  std::vector<std::uint32_t> seen(ssd_.config().nand.channels, 0);
  std::vector<std::uint32_t> round(ranges.size());
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    round[r] = seen[ssd_.ChannelOf(
        static_cast<std::uint32_t>(ranges[r].start / zone_size))]++;
  }
  std::vector<std::size_t> schedule(ranges.size());
  std::iota(schedule.begin(), schedule.end(), std::size_t{0});
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&round](std::size_t a, std::size_t b) {
                     return round[a] < round[b];
                   });

  // Fan the range reads out with a bounded inflight. Each worker writes
  // disjoint uniq_values slots, so results are independent of read and
  // completion order — parallelism changes timing, never contents.
  std::vector<std::string> uniq_values(uniq.size());
  auto read_range = [&](std::size_t k) -> sim::Task<Status> {
    const Range& range = ranges[schedule[k]];
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
    co_await sim::BookWait(sim_, sim::Layer::kKeyspaceWait,
                           ks->runtime.compaction_done.Wait());
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
  ReaderGuard reader(ks);
  sim::TraceSpan span(sim_, trk_query_, "point_lookup");
  // The command's path tag: which source answered it.
  sim::Ledger* ledger = co_await sim::CurrentLedger();
  auto served_by = [ledger](const char* path) {
    if (ledger != nullptr) ledger->set_path(path);
  };
  // The delta index is authoritative for every key it holds — strictly
  // newer than anything in the run.
  if (auto it = ks->delta_index.find(key); it != ks->delta_index.end()) {
    co_await cpu_.Compute(config_.costs.block_search,
                          sim::Activity::kHostRead);
    if (it->second.tombstone) {
      served_by("delta_tombstone");
      stats().counter("device.query.delta_hits").Increment();
      co_return Status::NotFound();
    }
    served_by("delta");
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
      served_by("bloom_negative");
      co_return Status::NotFound();
    }
    bloom_said_maybe = true;
    stats().counter("device.bloom.maybe").Increment();
  }
  const std::size_t pos = SketchLowerBlock(ks->pidx_sketch, key);
  if (pos >= ks->pidx_sketch.size()) {
    served_by("miss");
    co_return Status::NotFound();
  }

  // On an index-cache miss the block's value spans are read alongside the
  // block, so the value read no longer waits for the block read. The span
  // bytes live in this frame: the reads are joined before every return.
  const SketchEntry& entry = ks->pidx_sketch[pos];
  const bool speculated = SpanReadEligible(ks->id, entry);
  std::vector<std::string> span_bytes;
  sim::TaskGroup span_reads(sim_, ledger);
  if (speculated) {
    stats().counter("device.query.value_speculated").Increment();
    span_bytes.resize(entry.spans.size());
    for (std::size_t s = 0; s < entry.spans.size(); ++s) {
      span_reads.Spawn(ReadValueSpan(entry.spans[s].lo, entry.spans[s].hi,
                                     &span_bytes[s]));
    }
  }

  auto block = co_await ReadIndexBlock(ks->id, entry);
  Status status = block.status();
  std::optional<ValueRef> hit;
  if (status.ok()) {
    status = wire::ForEachIndexEntry<wire::PidxEntry>(
        *block, [&key, &hit](const wire::PidxEntry& e) {
          if (e.key == Slice(key)) hit = ValueRef{e.vaddr, e.vlen};
          return e.key < Slice(key);  // sorted: past `key`, it is absent
        });
  }
  // A failed span read never fails the GET by itself: the serial gather
  // below decides.
  Status span_status;
  if (speculated) span_status = co_await span_reads.Wait();
  // The span that holds the hit, once every span read has succeeded.
  std::size_t serving = entry.spans.size();
  if (speculated && span_status.ok() && status.ok() && hit.has_value()) {
    for (std::size_t s = 0; s < entry.spans.size(); ++s) {
      if (hit->addr >= entry.spans[s].lo &&
          hit->addr + hit->len <= entry.spans[s].hi) {
        serving = s;
        break;
      }
    }
  }
  const bool served = speculated && serving < entry.spans.size();
  if (speculated && !served) {
    stats().counter("device.query.speculation_wasted").Increment();
  }
  KVCSD_CO_RETURN_IF_ERROR(status);
  if (hit.has_value()) {
    served_by("run");
    if (served) {
      co_return span_bytes[serving].substr(
          hit->addr - entry.spans[serving].lo, hit->len);
    }
    std::vector<ValueRef> one;
    one.push_back(*hit);
    auto values = co_await GatherValues(std::move(one));
    if (!values.ok()) co_return values.status();
    co_return std::move((*values)[0]);
  }
  if (bloom_said_maybe) {
    stats().counter("device.bloom.false_positive").Increment();
  }
  served_by("miss");
  co_return Status::NotFound();
}

bool Device::SpanReadEligible(std::uint64_t keyspace_id,
                              const SketchEntry& entry) const {
  // No span: a SIDX block (every PIDX block with a non-empty value has
  // one).
  if (entry.spans.empty()) return false;
  // A cached block costs no flash read to overlap with.
  if (index_cache_.Contains(keyspace_id, entry.block_addr)) return false;
  const storage::NandModel& nand = ssd_.nand();
  Tick transfer = 0;
  for (const wire::ValueSpan& s : entry.spans) {
    transfer += TransferTicks(nand.RoundUpToPages(s.hi - s.lo),
                              nand.config().channel_bytes_per_sec);
  }
  return transfer <= nand.config().read_latency;
}

sim::Task<Status> Device::ReadValueSpan(std::uint64_t lo, std::uint64_t hi,
                                        std::string* out) {
  out->assign(hi - lo, '\0');
  co_await cpu_.Compute(config_.costs.io_path_overhead,
                        sim::Activity::kHostRead);
  co_return co_await ssd_.Read(
      lo,
      std::span<std::byte>(reinterpret_cast<std::byte*>(out->data()),
                           out->size()),
      sim::Activity::kHostRead);
}

template <typename Entry, typename Take>
sim::Task<Status> Device::WalkSketch(std::uint64_t keyspace_id,
                                     const std::vector<SketchEntry>& sketch,
                                     const std::string& lo,
                                     const std::string& hi, sim::Activity act,
                                     const Take& take) {
  std::size_t pos = sketch.empty() ? 0 : SketchRangeStart(sketch, lo);

  // Two alternating prefetch slots keep block pos+1's flash read in
  // flight while block pos is awaited and decoded; the pivot guard below
  // never fetches past `hi`, so at most one read (a mid-block limit cut)
  // is ever wasted. All error exits fall through the drain below — the
  // slots live in this frame and a detached prefetch must not outlive it.
  // Each read books into a ledger of its slot when the walk keeps one,
  // and a wait for it books by the join rule (sim::AwaitChild).
  IndexPrefetch slots[2];
  sim::Ledger* ledger = co_await sim::CurrentLedger();
  auto issue = [&](std::size_t p) {
    IndexPrefetch& s = slots[p % 2];
    s.active = true;
    s.pos = p;
    if (!s.done) {
      s.done = std::make_unique<sim::Event>(sim_);
    } else {
      s.done->Reset();
    }
    s.ledger.reset();
    if (ledger != nullptr) s.ledger.emplace(sim_->Now());
    sim_->Spawn(PrefetchIndexBlock(keyspace_id, sketch[p], &s, act));
  };
  auto await_slot = [this](IndexPrefetch& s) {
    return sim::AwaitChild(sim_, s.done.get(),
                           s.ledger ? &*s.ledger : nullptr);
  };

  // The previous entry's position, owned: the order check spans blocks. A
  // violation means a corrupt or misdirected block and would silently
  // mis-cut `limit`, so it fails loudly.
  std::string prev_skey;
  std::string prev_pkey;
  bool have_prev = false;
  bool stop = false;
  Status status = Status::Ok();
  auto visit = [&](const Entry& entry) {
    const IndexPosition at = PositionOf(entry);
    if (have_prev && SidxOrder(at, IndexPosition{prev_skey, prev_pkey})) {
      status = Status::Corruption(std::string(Entry::kKind) +
                                  " entries out of order");
      return false;
    }
    prev_skey.assign(at.skey.data(), at.skey.size());
    prev_pkey.assign(at.pkey.data(), at.pkey.size());
    have_prev = true;
    if (at.skey < Slice(lo)) return true;
    stop = Slice(hi) < at.skey || take(entry);
    return !stop;
  };
  for (; pos < sketch.size() && status.ok() && !stop; ++pos) {
    if (sketch[pos].pivot > hi) break;
    IndexPrefetch& cur = slots[pos % 2];
    if (cur.active && cur.pos != pos) {  // stale slot: drain before reuse
      co_await await_slot(cur);
      cur.active = false;
    }
    if (!cur.active) issue(pos);
    if (pos + 1 < sketch.size() && !(sketch[pos + 1].pivot > hi) &&
        !slots[(pos + 1) % 2].active) {
      stats().counter("device.prefetch.issued").Increment();
      issue(pos + 1);
    }
    co_await await_slot(cur);
    cur.active = false;
    const Result<std::string> block = std::move(cur.block);
    if (!block.ok()) {
      status = block.status();
      break;
    }
    const Status decoded = wire::ForEachIndexEntry<Entry>(*block, visit);
    if (!decoded.ok()) status = decoded;
  }
  for (IndexPrefetch& s : slots) {
    if (s.active) {
      co_await await_slot(s);
      s.active = false;
      stats().counter("device.prefetch.wasted").Increment();
    }
  }
  co_return status;
}

sim::Task<Status> Device::FetchRows(
    std::vector<ScanRow>* rows, sim::Activity act,
    std::vector<std::pair<std::string, std::string>>* out) {
  std::vector<ValueRef> refs;
  for (const ScanRow& row : *rows) {
    if (row.dram == nullptr) refs.push_back(row.ref);
  }
  auto values = co_await GatherValues(std::move(refs), act);
  if (!values.ok()) co_return values.status();
  out->reserve(out->size() + rows->size());
  std::size_t k = 0;
  for (ScanRow& row : *rows) {
    if (row.dram == nullptr) {
      out->emplace_back(std::move(row.key), std::move((*values)[k++]));
    } else {
      out->emplace_back(std::move(row.key), *row.dram);
    }
  }
  co_return Status::Ok();
}

sim::Task<Status> Device::QueryPrimaryRange(
    Keyspace* ks, const std::string& lo, const std::string& hi,
    std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    sim::Activity act) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks);

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

  std::vector<ScanRow> matches;
  auto take = [&](const wire::PidxEntry& entry) {
    matches.push_back(ScanRow{entry.key.ToString(),
                              ValueRef{entry.vaddr, entry.vlen}, nullptr});
    return scan_limit != 0 && matches.size() >= scan_limit;
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await WalkSketch<wire::PidxEntry>(
      ks->id, ks->pidx_sketch, lo, hi, act, take));

  // Two-way merge with the delta snapshot: the delta wins ties (strictly
  // newer), tombstones suppress their run rows, and delta-only keys slot
  // into key order. Inline delta values copy straight from DRAM; the ones
  // that only survive as VLOG pointers after a power cycle are gathered
  // with the run values.
  std::vector<ScanRow> rows;
  rows.reserve(matches.size() + delta_rows.size());
  std::size_t ri = 0;
  std::size_t di = 0;
  while ((ri < matches.size() || di < delta_rows.size()) &&
         (limit == 0 || rows.size() < limit)) {
    const bool run_left = ri < matches.size();
    const bool delta_left = di < delta_rows.size();
    if (delta_left && (!run_left || delta_rows[di].first <= matches[ri].key)) {
      if (run_left && delta_rows[di].first == matches[ri].key) {
        ++ri;  // the run row is stale
      }
      const DeltaEntry* d = delta_rows[di].second;
      if (!d->tombstone) {
        // Without inline bytes, `value` is empty: only a non-empty value
        // needs its VLOG copy.
        const bool in_vlog = !d->has_value && d->vlen > 0;
        rows.push_back(ScanRow{delta_rows[di].first,
                               ValueRef{d->vaddr, d->vlen},
                               in_vlog ? nullptr : &d->value});
      }
      ++di;
    } else {
      rows.push_back(std::move(matches[ri]));
      ++ri;
    }
  }
  co_return co_await FetchRows(&rows, act, out);
}

sim::Task<Status> Device::QuerySecondaryRange(
    Keyspace* ks, const std::string& index_name, const std::string& lo,
    const std::string& hi, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    sim::Activity act, bool attribute_only) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks);
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
    auto skey = nvme::ExtractSecondaryKey(Slice(*value), sidx.spec);
    if (!skey.ok()) co_return skey.status();
    if (*skey < lo || hi < *skey) continue;
    if (attribute_only) {
      *value = value->substr(sidx.spec.value_offset, sidx.spec.value_length);
    }
    fresh.push_back(FreshTuple{std::move(*skey), pkey, std::move(*value)});
  }
  std::sort(fresh.begin(), fresh.end(), SidxOrder);

  // SIDX blocks are globally sorted by SidxOrder — SidxMergeToBlocks
  // emits them in exactly that order and the walk verifies it — so when
  // `limit` lands inside a run of tied secondary keys, the cut is
  // deterministic: the survivors are always the lexicographically-smallest
  // primary keys of the tie, independent of core count, gather fan-out,
  // or cache state.
  std::vector<SidxTuple> matches;
  auto take = [&](const wire::SidxEntry& entry) {
    if (ks->delta_index.contains(entry.pkey.ToString())) {
      return false;  // stale: this row was overwritten or deleted
    }
    matches.push_back(SidxTuple{entry.skey.ToString(), entry.pkey.ToString(),
                                entry.vaddr, entry.vlen});
    return scan_limit != 0 && matches.size() >= scan_limit;
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await WalkSketch<wire::SidxEntry>(
      ks->id, sidx.sketch, lo, hi, act, take));

  // Merge run survivors with the fresh delta tuples by SidxOrder — the
  // two sets are disjoint by construction (run tuples whose pkey is in the
  // delta were dropped above) — and cut at `limit`.
  std::vector<ScanRow> rows;
  rows.reserve(matches.size() + fresh.size());
  std::size_t ri = 0;
  std::size_t fi = 0;
  while ((ri < matches.size() || fi < fresh.size()) &&
         (limit == 0 || rows.size() < limit)) {
    if (fi < fresh.size() &&
        (ri >= matches.size() || SidxOrder(fresh[fi], matches[ri]))) {
      rows.push_back(ScanRow{std::move(fresh[fi].pkey), ValueRef{0, 0},
                             &fresh[fi].value});
      ++fi;
    } else {
      SidxTuple& m = matches[ri];
      const std::string* attribute = nullptr;
      if (attribute_only) {
        // The merge compares this tuple no more, so its skey can hold the
        // decoded bytes FetchRows copies instead of gathering the value.
        auto raw = nvme::DecodeSecondaryKeyBytes(m.skey, sidx.spec);
        if (!raw.ok()) co_return raw.status();
        m.skey = std::move(*raw);
        attribute = &m.skey;
      }
      rows.push_back(
          ScanRow{std::move(m.pkey), ValueRef{m.vaddr, m.vlen}, attribute});
      ++ri;
    }
  }
  co_return co_await FetchRows(&rows, act, out);
}

}  // namespace kvcsd::device
