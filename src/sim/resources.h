// Timed, contended resources: bandwidth pipes (PCIe links, NAND channels,
// DRAM) and CPU pools (host cores, SoC ARM cores).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/activity.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::sim {

// Per-activity-class busy-time accounting over rotating windows aligned to
// an absolute grid: window k covers [k*W, (k+1)*W). Writers call Add() with
// busy ticks; readers see the last *completed* window, so a gauge sampled
// anywhere inside window k+1 reports window k's totals — a stable value
// independent of where in the window the sample lands. Accounting only:
// Add() never advances simulated time, so metering cannot perturb the
// schedule (bench fingerprints are unchanged by attaching a meter).
class ResourceMeter {
 public:
  static constexpr Tick kDefaultWindow = Microseconds(100);

  ResourceMeter(Simulation* sim, std::string name, double capacity,
                Tick window = kDefaultWindow)
      : sim_(sim),
        name_(std::move(name)),
        capacity_(capacity),
        window_(window == 0 ? kDefaultWindow : window) {}

  // Attribute `busy` ticks of work to `act` in the window containing the
  // current tick. Work that spans a window boundary is booked entirely to
  // the window in which it completes; over windows much longer than a
  // single operation the error is negligible and the bookkeeping is O(1).
  void Add(Activity act, Tick busy) {
    const std::uint64_t idx = sim_->Now() / window_;
    if (idx != cur_index_) {
      prev_ = (idx == cur_index_ + 1) ? cur_ : Buckets{};
      prev_index_ = idx - 1;
      cur_ = Buckets{};
      cur_index_ = idx;
    }
    cur_[static_cast<std::size_t>(act)] += busy;
    total_[static_cast<std::size_t>(act)] += busy;
  }

  // Busy ticks per class over the last completed window, derived lazily
  // from the current tick (rotation happens on Add, so a long-idle meter
  // must not report a stale window as recent).
  std::array<Tick, kActivityCount> WindowBusy() const {
    const std::uint64_t idx = sim_->Now() / window_;
    if (idx == cur_index_ + 1) return cur_;  // cur_ window just completed
    if (idx == cur_index_ && prev_index_ + 1 == cur_index_) return prev_;
    return Buckets{};  // idle across >= 1 full window: nothing recent
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
  std::uint64_t cur_index_ = 0;
  std::uint64_t prev_index_ = 0;
  Buckets cur_{};
  Buckets prev_{};
  Buckets total_{};
};

// A FIFO pipe with a fixed byte rate and a fixed per-operation latency.
// Transfers serialize on the pipe (service time = bytes/rate) but the
// per-op latency pipelines, i.e. back-to-back messages each pay the latency
// concurrently, like a real link.
class BandwidthResource {
 public:
  BandwidthResource(Simulation* sim, std::string name, double bytes_per_sec,
                    Tick per_op_latency = 0)
      : sim_(sim),
        name_(std::move(name)),
        bytes_per_sec_(bytes_per_sec),
        per_op_latency_(per_op_latency) {}

  // Completes when the last byte has moved through the pipe. `act` tags the
  // service time in the attached meter (if any); it never changes timing.
  Task<void> Transfer(std::uint64_t bytes, Activity act = Activity::kOther) {
    const Tick now = sim_->Now();
    const Tick service = TransferTicks(bytes, bytes_per_sec_);
    const Tick start = now > next_free_ ? now : next_free_;
    next_free_ = start + service;
    bytes_ += bytes;
    busy_ += service;
    if (meter_ != nullptr) meter_->Add(act, service);
    const Tick done = start + per_op_latency_ + service;
    co_await sim_->Delay(done - now);
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
  CpuPool(Simulation* sim, std::string name, std::uint32_t cores)
      : sim_(sim),
        name_(std::move(name)),
        sem_(sim, cores),
        meter_(sim, name_, static_cast<double>(cores)) {}

  Task<void> Compute(Tick cost, Activity act = Activity::kOther) {
    co_await sem_.Acquire();
    co_await sim_->Delay(cost);
    busy_ += cost;
    meter_.Add(act, cost);
    sem_.Release();
  }

  // Convenience: cost expressed as bytes processed at a per-core rate.
  Task<void> ComputeBytes(std::uint64_t bytes, double bytes_per_sec,
                          Activity act = Activity::kOther) {
    co_await Compute(TransferTicks(bytes, bytes_per_sec), act);
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
};

}  // namespace kvcsd::sim
