#include "sim/simulation.h"

#include <cstdio>
#include <cstdlib>
#include <exception>

namespace kvcsd::sim {

// Self-destroying fire-and-forget coroutine used to host spawned processes.
// Each runner registers its frame with the owning Simulation for the whole
// time it exists (the promise constructor/destructor bracket the frame's
// lifetime exactly), so ~Simulation can reclaim processes that are still
// blocked on a primitive nobody will ever signal.
struct Simulation::DetachedRunner {
  struct promise_type {
    Simulation* sim;

    // Matches RunDetached's parameter list (the promise constructor sees
    // the coroutine's arguments).
    promise_type(Simulation* s, Task<void>&, std::size_t*) : sim(s) {
      sim->detached_.insert(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }
    ~promise_type() {
      sim->detached_.erase(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }

    DetachedRunner get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      // Library code reports failures via Status; an exception reaching a
      // detached process root is a programming error we cannot recover
      // from deterministically.
      std::fprintf(stderr,
                   "kvcsd::sim: unhandled exception in detached process\n");
      std::terminate();
    }
  };
};

namespace {

Simulation::DetachedRunner RunDetached(Simulation* sim, Task<void> task,
                                       std::size_t* live) {
  // Queue the start so spawn order == start order at the current tick.
  co_await sim->Delay(0);
  co_await std::move(task);
  --*live;
}

}  // namespace

void Simulation::Spawn(Task<void> task) {
  ++live_processes_;
  RunDetached(this, std::move(task), &live_processes_);
}

Simulation::~Simulation() {
  // A process blocked forever (a device main loop parked on its submission
  // queue) never reaches its frame-destroying final suspend; destroying the
  // runner cascades through the Task chain it owns. destroy() unregisters
  // the frame via ~promise_type, so keep taking the first survivor.
  while (!detached_.empty()) {
    std::coroutine_handle<>::from_address(*detached_.begin()).destroy();
  }
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.when;
  // Sample gauges before resuming, so the sample sees the state as of the
  // cadence boundary the clock just crossed. Sampling takes no simulated
  // time; a disabled sampler costs one branch per event.
  if (telemetry_.Due(now_)) telemetry_.Sample(now_);
  detail::Trampoline::Reset();
  ev.handle.resume();
  // A chain of synchronous transfers that reached the depth limit parked
  // its next coroutine and unwound to here: it continues before any other
  // event, exactly where it would have without the unwind.
  while (auto parked = detail::Trampoline::Reset()) parked.resume();
  return true;
}

Tick Simulation::Run() {
  while (Step()) {
  }
  return now_;
}

Tick Simulation::RunUntil(Tick deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    Step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace kvcsd::sim
