// Timed, contended resources: bandwidth pipes (PCIe links, NAND channels,
// DRAM) and CPU pools (host cores, SoC ARM cores).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/activity.h"
#include "sim/ledger.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::sim {

// Per-activity-class busy-time accounting over rotating windows aligned to
// an absolute grid: window k covers [k*W, (k+1)*W). Writers call Add() with
// the interval a piece of work occupies; readers see the last *completed*
// window, so a gauge sampled anywhere inside window k+1 reports window k's
// totals — a stable value independent of where in the window the sample
// lands. Accounting only: Add() never advances simulated time, so metering
// cannot perturb the schedule (bench fingerprints are unchanged by
// attaching a meter).
class ResourceMeter {
 public:
  static constexpr Tick kDefaultWindow = Microseconds(100);

  ResourceMeter(Simulation* sim, std::string name, double capacity,
                Tick window = kDefaultWindow)
      : sim_(sim),
        name_(std::move(name)),
        capacity_(capacity),
        window_(window == 0 ? kDefaultWindow : window) {}

  // Attribute the work `act` does over [begin, end) to every window the
  // interval overlaps, each getting the part that falls in it. A core or a
  // pipe knows when the work it starts will end, so the interval may reach
  // into windows still to come, and a charge longer than a window shows
  // as full occupancy in each window it spans. Parts that fall before the
  // last completed window are counted only in the totals.
  void Add(Activity act, Tick begin, Tick end) {
    const auto a = static_cast<std::size_t>(act);
    total_[a] += end - begin;
    const std::uint64_t now_index = sim_->Now() / window_;
    const std::uint64_t keep = now_index == 0 ? 0 : now_index - 1;
    while (!windows_.empty() && first_index_ < keep) {
      windows_.pop_front();
      ++first_index_;
    }
    if (windows_.empty()) first_index_ = keep;
    for (Tick t = std::max(begin, first_index_ * window_); t < end;) {
      const std::uint64_t idx = t / window_;
      const Tick upto = std::min(end, (idx + 1) * window_);
      if (idx - first_index_ >= windows_.size()) {
        windows_.resize(idx - first_index_ + 1);
      }
      windows_[idx - first_index_][a] += upto - t;
      t = upto;
    }
  }

  // Busy ticks per class over the last completed window.
  std::array<Tick, kActivityCount> WindowBusy() const {
    const std::uint64_t idx = sim_->Now() / window_;
    if (idx == 0 || idx - 1 < first_index_ ||
        idx - 1 - first_index_ >= windows_.size()) {
      return Buckets{};
    }
    return windows_[idx - 1 - first_index_];
  }

  // Since-construction busy ticks per class (never rotated away).
  std::array<Tick, kActivityCount> TotalBusy() const { return total_; }

  // Appends one gauge per class — "util.<name>.<class>" in permille of one
  // resource-equivalent over the last completed window — plus
  // "util.<name>.capacity" (permille, so a 4-core pool reports 4000).
  // Telemetry gauges are u64, hence the fixed-point encoding.
  void AppendGauges(
      std::vector<std::pair<std::string, std::uint64_t>>* out) const {
    const auto busy = WindowBusy();
    for (std::size_t i = 0; i < kActivityCount; ++i) {
      out->emplace_back(
          "util." + name_ + "." + ActivityName(static_cast<Activity>(i)),
          busy[i] * 1000 / window_);
    }
    out->emplace_back("util." + name_ + ".capacity",
                      static_cast<std::uint64_t>(capacity_ * 1000.0));
  }

  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }
  Tick window() const { return window_; }

 private:
  using Buckets = std::array<Tick, kActivityCount>;

  Simulation* sim_;
  std::string name_;
  double capacity_;
  Tick window_;
  // Buckets of windows first_index_, first_index_ + 1, ...: the last
  // completed window onward, as far as booked work reaches.
  std::uint64_t first_index_ = 0;
  std::deque<Buckets> windows_;
  Buckets total_{};
};

// The ledger layers a resource books into (sim/ledger.h): the time a
// caller queues for it and the time it serves the caller.
struct Layers {
  Layer wait = Layer::kOther;
  Layer service = Layer::kOther;
};

// Awaits `wait` (an Event or Semaphore awaiter) and books the time it
// took as `layer` on the awaiting task's ledger, if any.
template <typename Awaitable>
Task<void> BookWait(Simulation* sim, Layer layer, Awaitable wait) {
  const Tick begin = sim->Now();
  co_await wait;
  Ledger* ledger = co_await CurrentLedger();
  if (ledger != nullptr) ledger->Book(begin, layer, sim->Now());
}

// A FIFO pipe with a fixed byte rate and a fixed per-operation latency.
// Transfers serialize on the pipe (service time = bytes/rate) but the
// per-op latency pipelines, i.e. back-to-back messages each pay the latency
// concurrently, like a real link.
class BandwidthResource {
 public:
  BandwidthResource(Simulation* sim, std::string name, double bytes_per_sec,
                    Tick per_op_latency = 0, Layers layers = {})
      : sim_(sim),
        name_(std::move(name)),
        bytes_per_sec_(bytes_per_sec),
        per_op_latency_(per_op_latency),
        layers_(layers) {}

  // Completes when the last byte has moved through the pipe. `act` tags the
  // service time in the attached meter (if any); it never changes timing.
  // The caller's ledger, if any, books the wait for the pipe and then the
  // latency plus service time.
  Task<void> Transfer(std::uint64_t bytes, Activity act = Activity::kOther) {
    const Tick now = sim_->Now();
    const Tick service = TransferTicks(bytes, bytes_per_sec_);
    const Tick start = now > next_free_ ? now : next_free_;
    next_free_ = start + service;
    bytes_ += bytes;
    busy_ += service;
    if (meter_ != nullptr) meter_->Add(act, start, next_free_);
    const Tick done = start + per_op_latency_ + service;
    co_await sim_->Delay(done - now);
    Ledger* ledger = co_await CurrentLedger();
    if (ledger != nullptr) {
      ledger->Book(now, layers_.wait, start);
      ledger->Book(layers_.service, done);
    }
  }

  // Attaches a per-activity meter; several pipes (e.g. NAND channels) may
  // share one meter, which then reports their aggregate in
  // channel-equivalents. The meter must outlive the pipe.
  void set_meter(ResourceMeter* meter) { meter_ = meter; }

  const std::string& name() const { return name_; }
  std::uint64_t total_bytes() const { return bytes_; }
  Tick busy_time() const { return busy_; }

 private:
  Simulation* sim_;
  std::string name_;
  double bytes_per_sec_;
  Tick per_op_latency_;
  Layers layers_;
  ResourceMeter* meter_ = nullptr;
  Tick next_free_ = 0;
  std::uint64_t bytes_ = 0;
  Tick busy_ = 0;
};

// A pool of identical cores. Compute(cost) occupies one core for `cost`
// simulated ns, queueing FIFO when all cores are busy. This models the
// paper's CPU-pinning setup directly: "N cores available to this workload"
// is a pool of size N shared by foreground threads and background workers.
class CpuPool {
 public:
  CpuPool(Simulation* sim, std::string name, std::uint32_t cores,
          Layers layers = {})
      : sim_(sim),
        name_(std::move(name)),
        sem_(sim, cores),
        meter_(sim, name_, static_cast<double>(cores)),
        layers_(layers) {}

  // The caller's ledger, if any, books the wait for a core and the cost.
  Task<void> Compute(Tick cost, Activity act = Activity::kOther) {
    const Tick begin = sim_->Now();
    co_await sem_.Acquire();
    const Tick start = sim_->Now();
    meter_.Add(act, start, start + cost);
    co_await sim_->Delay(cost);
    busy_ += cost;
    sem_.Release();
    Ledger* ledger = co_await CurrentLedger();
    if (ledger != nullptr) {
      ledger->Book(begin, layers_.wait, start);
      ledger->Book(layers_.service, sim_->Now());
    }
  }

  // Convenience: cost expressed as bytes processed at a per-core rate.
  Task<void> ComputeBytes(std::uint64_t bytes, double bytes_per_sec,
                          Activity act = Activity::kOther) {
    co_await Compute(TransferTicks(bytes, bytes_per_sec), act);
  }

  // The slice of a sliced charge: one 4 KiB index block of bytes.
  static constexpr std::uint64_t kSliceBytes = 4096;

  // Bytes [from, from + bytes) of a stream processed at `bytes_per_sec`,
  // charged one kSliceBytes slice at a time: the core is given back at
  // every slice boundary, so work queued behind a long background charge
  // waits one slice, not the whole charge. Slice [a, b) pays
  // TransferTicks(b) - TransferTicks(a), so consecutive charges of one
  // stream add up exactly to ComputeBytes over all of it. `fixed` ticks
  // (per-record handling) ride on the first slice.
  Task<void> ComputeSliced(std::uint64_t bytes, double bytes_per_sec,
                           Activity act, std::uint64_t from = 0,
                           Tick fixed = 0) {
    const std::uint64_t end = from + bytes;
    Tick charged = TransferTicks(from, bytes_per_sec);
    for (std::uint64_t at = from; at < end || fixed > 0;) {
      at = std::min(end, at + kSliceBytes);
      const Tick upto = TransferTicks(at, bytes_per_sec);
      co_await Compute(upto - charged + std::exchange(fixed, Tick{0}), act);
      charged = upto;
    }
  }

  const std::string& name() const { return name_; }
  Tick busy_time() const { return busy_; }
  // Per-activity windowed occupancy (core-equivalents per class).
  ResourceMeter& meter() { return meter_; }
  const ResourceMeter& meter() const { return meter_; }

 private:
  Simulation* sim_;
  std::string name_;
  Semaphore sem_;
  Tick busy_ = 0;
  ResourceMeter meter_;
  Layers layers_;
};

}  // namespace kvcsd::sim
