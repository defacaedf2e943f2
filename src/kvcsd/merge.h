// K-way merge machinery for the device compactor (paper §V).
//
// Three pieces, shared by the key merge and the SIDX merge:
//
//  * LoserTree — a tournament tree selecting the minimum of k sources in
//    O(log k) comparisons per pop, replacing the O(k) scan-per-element
//    loops the compactor used to run on every merged entry.
//  * TempRunReader — streams one spilled run back from TEMP zone
//    clusters, double-buffered: the flash read of the next segment is
//    issued as soon as the previous buffer is handed over, so merge
//    compute on the current segment overlaps the SSD read of the next.
//  * RunMerger — glues k readers to a loser tree behind a Pop() loop.
//
// Ties between runs are broken by run index (the order runs were
// generated in), which is deterministic regardless of how many SoC cores
// executed run generation — a requirement for compaction results being
// reproducible across `soc_cores` settings.
#pragma once

#include <cstdint>
#include <memory>
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

// Merge traits for KLOG-format runs (phase-1 key merge). Duplicate keys
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
};

// Streams one spilled run's entries back from flash. Owned by shared_ptr
// because the prefetch I/O runs as a detached process: the in-flight read
// keeps the reader alive even if the merge aborts early.
template <typename Traits>
class TempRunReader
    : public std::enable_shared_from_this<TempRunReader<Traits>> {
 public:
  using Entry = typename Traits::Entry;

  TempRunReader(sim::Simulation* sim, storage::ZnsSsd* ssd,
                const SpilledRun* run, std::uint64_t* bytes_read_counter)
      : sim_(sim),
        ssd_(ssd),
        run_(run),
        bytes_read_(bytes_read_counter),
        prefetch_ready_(sim) {}
  TempRunReader(const TempRunReader&) = delete;
  TempRunReader& operator=(const TempRunReader&) = delete;

  bool valid() const { return valid_; }
  const Entry& head() const { return head_; }
  Entry& mutable_head() { return head_; }

  // Loads the first entry (and starts prefetching the second segment).
  // Call exactly once before the first Advance().
  sim::Task<Status> Init() {
    StartPrefetch();
    co_return co_await Advance();
  }

  // Parses the next entry into head(); flips valid() off at end-of-run.
  // Swapping in a prefetched buffer immediately kicks off the read of the
  // segment after it, so the SSD stays busy while the caller merges.
  sim::Task<Status> Advance() {
    for (;;) {
      if (!cursor_.empty()) {
        if (!Traits::Parse(&cursor_, &head_)) {
          co_return Status::Corruption("bad TEMP run entry");
        }
        valid_ = true;
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
  void StartPrefetch() {
    if (next_segment_ >= run_->segments.size()) return;
    const auto [addr, len] = run_->segments[next_segment_++];
    prefetch_active_ = true;
    prefetch_ready_.Reset();
    sim_->Spawn(PrefetchIo(this->shared_from_this(), addr, len));
  }

  static sim::Task<void> PrefetchIo(std::shared_ptr<TempRunReader> self,
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
  const SpilledRun* run_;
  std::uint64_t* bytes_read_;

  std::size_t next_segment_ = 0;
  std::string buffer_;
  Slice cursor_;
  Entry head_{};
  bool valid_ = false;

  bool prefetch_active_ = false;
  std::string prefetch_buffer_;
  Status prefetch_status_;
  sim::Event prefetch_ready_;
};

// K-way merger over spilled runs: loser-tree selection over
// double-buffered readers. The SpilledRun storage must outlive the
// merger; readers hold pointers into it.
template <typename Traits>
class RunMerger {
 public:
  using Entry = typename Traits::Entry;

  RunMerger(sim::Simulation* sim, storage::ZnsSsd* ssd)
      : sim_(sim), ssd_(ssd) {}

  // Creates one reader per run and loads every head concurrently, so the
  // k first-segment reads spread across NAND channels.
  sim::Task<Status> Init(const std::vector<SpilledRun>& runs,
                         std::uint64_t* bytes_read_counter) {
    readers_.reserve(runs.size());
    for (const SpilledRun& run : runs) {
      readers_.push_back(std::make_shared<TempRunReader<Traits>>(
          sim_, ssd_, &run, bytes_read_counter));
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

  // Moves the smallest live entry into *out and advances its run.
  //
  // Most pops complete without suspending. Where the compiler does not
  // turn coroutine symmetric transfer into a tail call (GCC at -O0), each
  // synchronous Pop <-> caller round trip nests a native stack frame, so
  // every kPopsPerYield pops resume through the event queue (a zero-time
  // delay) and unwind the stack: its depth is bounded by construction.
  sim::Task<Status> Pop(Entry* out) {
    if (++pops_ % kPopsPerYield == 0) co_await sim_->Delay(0);
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

  static constexpr std::uint64_t kPopsPerYield = 256;

  sim::Simulation* sim_;
  storage::ZnsSsd* ssd_;
  std::vector<std::shared_ptr<TempRunReader<Traits>>> readers_;
  LoserTree tree_;
  std::size_t live_ = 0;
  std::uint64_t pops_ = 0;
};

}  // namespace kvcsd::device
