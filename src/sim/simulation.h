// The discrete-event simulation engine.
//
// A Simulation owns a virtual clock (nanoseconds) and an event queue of
// coroutine handles to resume. "Processes" (application threads, the device
// main loop, background compaction workers) are coroutines spawned onto the
// simulation; they interact through awaitable synchronization primitives
// (sync.h) and timed resources (resources.h). Everything is deterministic:
// same inputs, same event order, same final clock — by design, since the
// reproduction's claims are about time ratios.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/telemetry.h"
#include "sim/tracer.h"

namespace kvcsd::sim {

class Simulation {
 public:
  Simulation() {
    log_.BindClock([this] { return now_; });
    log_.BindGauges(&telemetry_);
  }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Destroys any detached process still suspended (e.g. a device main loop
  // parked forever on its submission queue). Such a process must not hold
  // RAII locals that touch objects destroyed before the Simulation.
  ~Simulation();

  Tick Now() const { return now_; }

  // Schedule `handle` to be resumed at absolute time `when` (>= Now()).
  // Events at equal times fire in schedule order (FIFO), which keeps runs
  // deterministic.
  void ScheduleAt(Tick when, std::coroutine_handle<> handle) {
    if (when < now_) when = now_;
    queue_.push(Event{when, next_seq_++, handle});
  }

  // Awaitable: suspends the current coroutine for `delay` simulated ns.
  auto Delay(Tick delay) {
    struct Awaiter {
      Simulation* sim;
      Tick delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->ScheduleAt(sim->now_ + delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  // Launch a detached process. It is queued to start at the current time
  // and runs interleaved with everything else. Exceptions escaping a
  // detached process terminate the simulation (library code reports errors
  // via Status; an exception here is a programming error).
  void Spawn(Task<void> task);

  // Run until the event queue drains. Returns the final clock value.
  Tick Run();

  // Run until the clock reaches `deadline` or the queue drains, whichever
  // is first. Events scheduled exactly at `deadline` are processed.
  Tick RunUntil(Tick deadline);

  // Number of spawned processes that have not yet finished. After Run(), a
  // nonzero value means some process is blocked forever (deadlock) — tests
  // assert this is zero.
  std::size_t live_processes() const { return live_processes_; }

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  // Span tracer (tracer.h); disabled until Tracer::Enable().
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // Gauge time-series sampler (telemetry.h); polled by the event loop,
  // disabled until TelemetrySampler::Enable().
  TelemetrySampler& telemetry() { return telemetry_; }
  const TelemetrySampler& telemetry() const { return telemetry_; }

  // The event ring (log.h): breadcrumbs and device command events,
  // stamped with the simulated clock; its dumps snapshot the telemetry
  // registry. Owned here rather than by a Device so it survives power
  // cycles.
  Log& log() { return log_; }
  const Log& log() const { return log_; }

  // Monotonic causal command id, unique for the simulation's lifetime
  // (across Device::Restart power cycles and any number of clients). Ids
  // start at 1 so 0 can mean "no command" in trace args.
  std::uint64_t AllocateCmdId() { return ++last_cmd_id_; }

  struct DetachedRunner;  // implementation detail, defined in simulation.cc

 private:
  struct Event {
    Tick when;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool Step();  // pop + resume one event; false if queue empty

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::size_t live_processes_ = 0;
  // Frame addresses of detached runners still in flight; each runner
  // registers in its promise constructor and unregisters in the promise
  // destructor, so the set always names exactly the frames the destructor
  // must reclaim.
  std::unordered_set<void*> detached_;
  Stats stats_;
  Tracer tracer_;
  TelemetrySampler telemetry_;
  Log log_;
  std::uint64_t last_cmd_id_ = 0;
};

}  // namespace kvcsd::sim
