// K-way merge machinery for the device compactor (paper §V).
//
// Four pieces, shared by the key merge and the SIDX merge:
//
//  * LoserTree — a tournament tree selecting the minimum of k sources in
//    O(log k) comparisons per pop, replacing the O(k) scan-per-element
//    loops the compactor used to run on every merged entry.
//  * RunReader — streams one sorted run: a run kept in SoC DRAM is
//    parsed in place; a run spilled to TEMP zone clusters is read back
//    double-buffered: the flash read of the next piece is issued as soon
//    as the previous buffer is handed over, so merge compute on the
//    current piece overlaps the SSD read of the next. Given a key range
//    [lo, hi), it takes only the bytes between the run-index marks that
//    bracket the range and yields only the entries inside it.
//  * RunMerger — glues k readers to a loser tree behind a Pop() loop.
//  * PickSplitters — cuts the key space of a set of runs into partitions
//    of about a target size from the runs' sparse indexes, so partition
//    merges can run at once on the SoC cores (DESIGN.md §7). A splitter
//    is a key, so every version of a key falls in one partition.
//
// Ties between runs are broken by run index (the order runs were
// generated in), which is deterministic regardless of how many SoC cores
// executed run generation — a requirement for compaction results being
// reproducible across `soc_cores` settings. A partition's merger holds a
// reader for every run, so its ties break exactly as the full merge's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/zns.h"

namespace kvcsd::device {

// Tournament ("loser") tree over k leaves. The caller supplies a strict
// weak order over *leaf indexes*; exhausted leaves must sort after every
// live leaf (encode that in the comparator). winner() is the index of the
// current minimum; after that leaf's head changes (advance or
// exhaustion), Replay(leaf) restores the invariant in O(log k).
class LoserTree {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Plays the full tournament bottom-up: node n's match is between the
  // winners of its children (positions 2n and 2n+1; leaf j sits at k+j),
  // the winner propagates, the loser stays at n. Successive Replay()
  // calls cannot build the tree — Replay assumes the replayed leaf was
  // the previous overall winner, which only holds in steady state.
  template <typename Less>
  void Build(std::size_t k, Less&& less) {
    k_ = k;
    tree_.assign(std::max<std::size_t>(k, 1), kNone);
    if (k == 0) return;
    if (k == 1) {
      tree_[0] = 0;
      return;
    }
    std::vector<std::size_t> winner(2 * k, kNone);
    for (std::size_t j = 0; j < k; ++j) winner[k + j] = j;
    for (std::size_t node = k - 1; node >= 1; --node) {
      const std::size_t a = winner[2 * node];
      const std::size_t b = winner[2 * node + 1];
      const bool b_wins = a == kNone || (b != kNone && less(b, a));
      winner[node] = b_wins ? b : a;
      tree_[node] = b_wins ? a : b;
    }
    tree_[0] = winner[1];
  }

  template <typename Less>
  void Replay(std::size_t leaf, Less&& less) {
    std::size_t winner = leaf;
    for (std::size_t node = (k_ + leaf) / 2; node >= 1; node /= 2) {
      std::size_t& loser = tree_[node];
      const bool loser_wins =
          loser != kNone && (winner == kNone || less(loser, winner));
      if (loser_wins) std::swap(winner, loser);
    }
    if (!tree_.empty()) tree_[0] = winner;
  }

  std::size_t winner() const { return tree_.empty() ? kNone : tree_[0]; }
  std::size_t size() const { return k_; }

 private:
  // tree_[0] holds the overall winner; nodes 1..k-1 hold the loser of the
  // match played at that node. Leaf `j` enters the bracket at (k + j) / 2.
  std::vector<std::size_t> tree_;
  std::size_t k_ = 0;
};

// The key range [lo, hi) one partition of a merge covers: an empty `lo`
// is open below, a missing `hi` open above. The default is every key.
struct KeyRange {
  std::string lo;
  std::optional<std::string> hi;
};

// Merge traits describe one run format: how an entry is ordered, which
// key a run index records for it, and how it is serialized (Append, at
// most MaxSize bytes) and parsed back.
//
// KLOG-format runs (phase-1 key merge). Duplicate keys
// (overwrites, tombstones) order by ascending mutation seq, so the merge
// pops every version of a key adjacently with the NEWEST last — the
// consumer keeps the final entry of each equal-key group and last-writer
// -wins falls out of the stream order regardless of which run (zone) held
// which version.
struct KlogMergeTraits {
  using Entry = KlogEntry;
  static bool Parse(Slice* in, Entry* out) {
    wire::ParsedKlogEntry e;
    if (!wire::ParseKlogEntry(in, &e)) return false;
    out->key.assign(e.key.data(), e.key.size());
    out->value_addr = e.vaddr;
    out->value_len = e.vlen;
    out->seq = e.seq;
    out->tombstone = e.tombstone;
    return true;
  }
  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }
  static const std::string& Key(const Entry& e) { return e.key; }
  static std::size_t MaxSize(const Entry& e) { return e.key.size() + 20; }
  static void Append(std::string* out, const Entry& e) {
    wire::AppendKlogEntry(out, e.key, e.value_addr, e.value_len, e.seq,
                          e.tombstone);
  }
};

// Merge traits for SIDX-format runs (<skey, pkey> external sort).
struct SidxMergeTraits {
  using Entry = SidxTuple;
  static bool Parse(Slice* in, Entry* out) {
    wire::SidxEntry e;
    if (!wire::ParseIndexEntry(in, &e)) return false;
    out->skey.assign(e.skey.data(), e.skey.size());
    out->pkey.assign(e.pkey.data(), e.pkey.size());
    out->vaddr = e.vaddr;
    out->vlen = e.vlen;
    return true;
  }
  static bool Less(const Entry& a, const Entry& b) { return SidxOrder(a, b); }
  static const std::string& Key(const Entry& e) { return e.skey; }
  static std::size_t MaxSize(const Entry& e) {
    return wire::SidxEntrySize(e.skey, e.pkey);
  }
  static void Append(std::string* out, const Entry& e) {
    wire::AppendSidxEntry(out, e.skey, e.pkey, e.vaddr, e.vlen);
  }
};

// Streams one run's entries, from DRAM for a resident run and back from
// flash for a spilled one. Owned by shared_ptr because the prefetch I/O
// runs as a detached process: the in-flight read keeps the reader alive
// even if the merge aborts early.
//
// Given a bounded `range`, the reader takes the run bytes from the last
// index mark below `lo` (entries of `lo` may precede the first mark that
// names it) up to the first mark at or past `hi`, skips the entries below
// `lo` and stops at the first entry at or past `hi`. A run without an
// index is read whole.
template <typename Traits>
class RunReader : public std::enable_shared_from_this<RunReader<Traits>> {
 public:
  using Entry = typename Traits::Entry;

  RunReader(sim::Simulation* sim, storage::ZnsSsd* ssd, const SpilledRun* run,
            std::uint64_t* bytes_read_counter, const KeyRange& range)
      : sim_(sim),
        ssd_(ssd),
        bytes_read_(bytes_read_counter),
        range_(range),
        prefetch_ready_(sim) {
    PlanPieces(*run);
  }
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  bool valid() const { return valid_; }
  const Entry& head() const { return head_; }
  Entry& mutable_head() { return head_; }

  // Loads the first entry (and starts prefetching the second piece).
  // Call exactly once before the first Advance().
  sim::Task<Status> Init() {
    StartPrefetch();
    co_return co_await Advance();
  }

  // Parses the next in-range entry into head(); flips valid() off at the
  // end of the run or of the range. Swapping in a prefetched buffer
  // immediately kicks off the read of the piece after it, so the SSD
  // stays busy while the caller merges.
  sim::Task<Status> Advance() {
    for (;;) {
      if (!cursor_.empty()) {
        if (!Traits::Parse(&cursor_, &head_)) {
          co_return Status::Corruption("bad sorted run entry");
        }
        const std::string& key = Traits::Key(head_);
        if (key < range_.lo) continue;
        valid_ = !range_.hi.has_value() || key < *range_.hi;
        if (!valid_) cursor_ = Slice();  // past the range: the run is done
        co_return Status::Ok();
      }
      if (!prefetch_active_) {
        valid_ = false;
        co_return Status::Ok();
      }
      co_await prefetch_ready_.Wait();
      prefetch_active_ = false;
      KVCSD_CO_RETURN_IF_ERROR(prefetch_status_);
      buffer_ = std::move(prefetch_buffer_);
      cursor_ = Slice(buffer_);
      StartPrefetch();
    }
  }

 private:
  // Run bytes [begin, end), cut at the index marks that bracket the
  // range: parsed in place for a resident run, else the flash extents
  // holding them, the segments laid end to end. Marks sit on entry
  // boundaries, so every piece parses on its own.
  void PlanPieces(const SpilledRun& run) {
    std::uint64_t total = run.resident.size();
    for (const auto& [addr, len] : run.segments) total += len;
    std::uint64_t begin = 0;
    std::uint64_t end = total;
    const auto& index = run.index;
    const auto mark_at_or_past = [&index](const std::string& key) {
      return std::partition_point(
          index.begin(), index.end(),
          [&key](const RunMark& m) { return m.key < key; });
    };
    if (!range_.lo.empty()) {
      const auto it = mark_at_or_past(range_.lo);
      if (it != index.begin()) begin = std::prev(it)->offset;
    }
    if (range_.hi.has_value()) {
      const auto it = mark_at_or_past(*range_.hi);
      if (it != index.end()) end = it->offset;
    }
    if (run.segments.empty()) {
      cursor_ = Slice(run.resident.data() + begin, end - begin);
      return;
    }
    std::uint64_t offset = 0;
    for (const auto& [addr, len] : run.segments) {
      const std::uint64_t from = std::max(begin, offset);
      const std::uint64_t to = std::min(end, offset + len);
      if (from < to) {
        pieces_.emplace_back(addr + (from - offset),
                             static_cast<std::uint32_t>(to - from));
      }
      offset += len;
    }
  }

  void StartPrefetch() {
    if (next_piece_ >= pieces_.size()) return;
    const auto [addr, len] = pieces_[next_piece_++];
    prefetch_active_ = true;
    prefetch_ready_.Reset();
    sim_->Spawn(PrefetchIo(this->shared_from_this(), addr, len));
  }

  static sim::Task<void> PrefetchIo(std::shared_ptr<RunReader> self,
                                    std::uint64_t addr, std::uint32_t len) {
    self->prefetch_buffer_.assign(len, '\0');
    self->prefetch_status_ = co_await self->ssd_->Read(
        addr, std::span<std::byte>(
                  reinterpret_cast<std::byte*>(self->prefetch_buffer_.data()),
                  self->prefetch_buffer_.size()),
        sim::Activity::kCompact);
    if (self->bytes_read_ != nullptr) *self->bytes_read_ += len;
    self->prefetch_ready_.Set();
  }

  sim::Simulation* sim_;
  storage::ZnsSsd* ssd_;
  std::uint64_t* bytes_read_;
  const KeyRange range_;

  std::vector<std::pair<std::uint64_t, std::uint32_t>> pieces_;
  std::size_t next_piece_ = 0;
  std::string buffer_;
  Slice cursor_;
  Entry head_{};
  bool valid_ = false;

  bool prefetch_active_ = false;
  std::string prefetch_buffer_;
  Status prefetch_status_;
  sim::Event prefetch_ready_;
};

// K-way merger over sorted runs: loser-tree selection over run readers,
// optionally restricted to one key range. The SpilledRun storage must
// outlive the merger; readers plan their reads from it and parse resident
// runs in place.
template <typename Traits>
class RunMerger {
 public:
  using Entry = typename Traits::Entry;

  RunMerger(sim::Simulation* sim, storage::ZnsSsd* ssd, KeyRange range = {})
      : sim_(sim), ssd_(ssd), range_(std::move(range)) {}

  // Creates one reader per run and loads every head concurrently, so the
  // k first reads spread across NAND channels.
  sim::Task<Status> Init(const std::vector<SpilledRun>& runs,
                         std::uint64_t* bytes_read_counter) {
    readers_.reserve(runs.size());
    for (const SpilledRun& run : runs) {
      readers_.push_back(std::make_shared<RunReader<Traits>>(
          sim_, ssd_, &run, bytes_read_counter, range_));
    }
    sim::TaskGroup group(sim_);
    for (auto& reader : readers_) group.Spawn(reader->Init());
    KVCSD_CO_RETURN_IF_ERROR(co_await group.Wait());
    for (const auto& reader : readers_) {
      if (reader->valid()) ++live_;
    }
    tree_.Build(readers_.size(),
                [this](std::size_t a, std::size_t b) { return LeafLess(a, b); });
    co_return Status::Ok();
  }

  bool Empty() const { return live_ == 0; }
  std::size_t fan_in() const { return readers_.size(); }

  // Moves the smallest live entry into *out and advances its run. Most
  // pops complete without suspending; the scheduler bounds the stack
  // depth of such a loop (sim/task.h).
  sim::Task<Status> Pop(Entry* out) {
    const std::size_t w = tree_.winner();
    *out = std::move(readers_[w]->mutable_head());
    KVCSD_CO_RETURN_IF_ERROR(co_await readers_[w]->Advance());
    if (!readers_[w]->valid()) --live_;
    tree_.Replay(w,
                 [this](std::size_t a, std::size_t b) { return LeafLess(a, b); });
    co_return Status::Ok();
  }

 private:
  bool LeafLess(std::size_t a, std::size_t b) const {
    const bool va = readers_[a]->valid();
    const bool vb = readers_[b]->valid();
    if (!va || !vb) return va && !vb;  // exhausted runs sort last
    const Entry& ha = readers_[a]->head();
    const Entry& hb = readers_[b]->head();
    if (Traits::Less(ha, hb)) return true;
    if (Traits::Less(hb, ha)) return false;
    return a < b;  // deterministic tie-break: run generation order
  }

  sim::Simulation* sim_;
  storage::ZnsSsd* ssd_;
  const KeyRange range_;
  std::vector<std::shared_ptr<RunReader<Traits>>> readers_;
  LoserTree tree_;
  std::size_t live_ = 0;
};

// Splitter keys for a partitioned merge of `runs`, ascending. Partition i
// is [splitter i-1, splitter i) (the first is open below, the last open
// above), so every version of a key falls in exactly one partition and
// last-writer-wins resolves inside it. Each index mark's chunk of run bytes is
// attributed to its first key; walking the chunks in key order, a
// splitter is placed at the first key change after `target_bytes` have
// accumulated. A partition therefore holds about `target_bytes` of run
// entries (give or take a chunk per run), or more only where one key's
// versions alone exceed it.
inline std::vector<std::string> PickSplitters(
    const std::vector<SpilledRun>& runs, std::uint64_t target_bytes) {
  struct Chunk {
    const std::string* key;
    std::uint64_t bytes;
  };
  std::vector<Chunk> chunks;
  for (const SpilledRun& run : runs) {
    for (std::size_t j = 0; j < run.index.size(); ++j) {
      const std::uint64_t end =
          j + 1 < run.index.size() ? run.index[j + 1].offset : run.bytes;
      chunks.push_back(Chunk{&run.index[j].key, end - run.index[j].offset});
    }
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return *a.key < *b.key; });
  std::vector<std::string> splitters;
  std::uint64_t accumulated = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i > 0 && accumulated >= target_bytes &&
        *chunks[i].key != *chunks[i - 1].key) {
      splitters.push_back(*chunks[i].key);
      accumulated = 0;
    }
    accumulated += chunks[i].bytes;
  }
  return splitters;
}

}  // namespace kvcsd::device
