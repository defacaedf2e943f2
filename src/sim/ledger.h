// The per-command latency ledger (DESIGN.md §9): one Tick slot per layer a
// command's critical path crosses, from the client's admission window to
// the reactor that reaps its completion.
//
// Booking is cursor-based: Book(layer, until) books [cursor, until) and
// moves the cursor, so the slots are disjoint pieces of one timeline and
// add up exactly to the span the cursor covered (for a command, the round
// trip the client measures). A span nothing booked lands in `other`.
//
// Fan-out (sim/parallel.h): a child task books into a ledger of its own.
// When the parent starts waiting for it, Rebase() moves what the child
// booked so far to `overlapped`; Join() hands the parent the bookings of
// the child that finished last inside the wait, plus `other` for the
// rest of the wait; Overlap() moves any other child's to `overlapped`,
// which lies outside the sum.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/units.h"

namespace kvcsd::sim {

enum class Layer : std::uint8_t {
  kHostQueue,     // client admission window and batch gate, SQ depth cap
  kHostCpu,       // client driver work on the host cores
  kPcieH2d,       // submission DMA
  kSqWait,        // SQ residency until the device's main loop pops it
  kDispatch,      // pop -> handler start
  kSocWait,       // waiting for a free SoC core
  kSoc,           // SoC compute
  kNandWait,      // queued on a NAND channel, a shared read, a flush slot
  kNand,          // NAND channel transfer and array latency
  kKeyspaceWait,  // a keyspace's write lock, compaction or fold
  kPcieD2h,       // completion DMA
  kReap,          // CQ ring -> client reactor
  kOther,         // time nothing booked
};
inline constexpr std::size_t kLayerCount = 13;

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "host_queue", "host_cpu", "pcie_h2d", "sq_wait",       "dispatch",
      "soc_wait",   "soc",      "nand_wait", "nand",         "keyspace_wait",
      "pcie_d2h",   "reap",     "other"};
  return kNames[static_cast<std::size_t>(layer)];
}

class Ledger {
 public:
  Ledger() = default;
  explicit Ledger(Tick start) : cursor_(start), floor_(start) {}

  void Book(Layer layer, Tick until) {
    if (cursor_ < floor_) {  // before the parent's wait: off its path
      const Tick cut = std::min(until, floor_);
      overlapped_ += cut - cursor_;
      cursor_ = cut;
    }
    if (until <= cursor_) return;
    slots_[static_cast<std::size_t>(layer)] += until - cursor_;
    cursor_ = until;
  }
  // A resource visit: [cursor, begin) to `other`, [begin, until) to
  // `layer`.
  void Book(Tick begin, Layer layer, Tick until) {
    Book(Layer::kOther, begin);
    Book(layer, until);
  }

  Tick operator[](Layer layer) const {
    return slots_[static_cast<std::size_t>(layer)];
  }
  Tick Sum() const {
    Tick sum = 0;
    for (Tick t : slots_) sum += t;
    return sum;
  }
  Tick overlapped() const { return overlapped_; }
  Tick cursor() const { return cursor_; }

  // The branch that served the command ("delta", "run", "primary", ...):
  // a static string, null when the device set none.
  const char* path() const { return path_; }
  void set_path(const char* path) { path_ = path; }

  void Rebase(Tick at) {
    overlapped_ += Sum();
    slots_ = {};
    floor_ = std::max(floor_, at);
  }
  // Books this parent's wait [from, until) on `child`, rebased at `from`.
  // When our own parent began waiting inside the wait, where the child's
  // bookings fall against that point is unknown: they are overlapped.
  void Join(Ledger* child, Tick from, Tick until) {
    Book(Layer::kOther, from);
    if (cursor_ >= floor_) {
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        slots_[i] += child->slots_[i];
      }
      cursor_ += child->Sum();
      child->slots_ = {};
    }
    Overlap(child);
    Book(Layer::kOther, until);
  }
  void Overlap(Ledger* child) {
    overlapped_ += child->Sum() + child->overlapped_;
    child->slots_ = {};
    child->overlapped_ = 0;
  }

 private:
  std::array<Tick, kLayerCount> slots_{};
  Tick overlapped_ = 0;
  Tick cursor_ = 0;
  Tick floor_ = 0;
  const char* path_ = nullptr;
};

}  // namespace kvcsd::sim
