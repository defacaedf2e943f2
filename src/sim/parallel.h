// Fan-out/fan-in helpers for simulation processes: structured task groups,
// a bounded-concurrency parallel for-loop, and a bounded hand-off channel
// for producer/consumer pipelines.
//
// These wrap the detached-spawn machinery so that callers get *structured*
// concurrency: every helper joins all of the work it started before
// returning, which keeps coroutine frames (and anything they reference)
// alive for the duration of the parallel section. Like everything in
// sim/, concurrency is virtual and deterministic: spawn order == start
// order, so the same inputs always produce the same event interleaving.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/ledger.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::sim {

// Spawns Status-returning tasks as detached processes and joins them.
// Wait() blocks until every spawned task finished and returns the first
// non-OK status (in completion order), or OK. The group must outlive all
// spawned tasks; Wait() before destruction guarantees that.
//
// With a parent ledger (sim/ledger.h) each task books into a ledger of its
// own, and Wait() books the parent's wait by the join rule: the bookings
// of the task that finished last, the rest of its tasks' to `overlapped`.
// A group without one allocates no ledgers.
class TaskGroup {
 public:
  explicit TaskGroup(Simulation* sim, Ledger* parent = nullptr)
      : sim_(sim), wg_(sim), parent_(parent) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Returns the task's ledger, null without a parent ledger.
  Ledger* Spawn(Task<Status> task) {
    wg_.Add(1);
    Ledger* ledger = nullptr;
    if (parent_ != nullptr) {
      ledger = children_.emplace_back(std::make_unique<Ledger>(sim_->Now()))
                   .get();
    }
    sim_->Spawn(Run(this, std::move(task), ledger));
    return ledger;
  }

  Task<Status> Wait() {
    const Tick from = sim_->Now();
    for (auto& child : children_) child->Rebase(from);
    co_await wg_.Wait();
    for (auto& child : children_) {
      if (child.get() == last_) parent_->Join(child.get(), from, sim_->Now());
      else parent_->Overlap(child.get());
    }
    children_.clear();
    last_ = nullptr;
    co_return first_error_;
  }

  std::int64_t pending() const { return wg_.count(); }

 private:
  static Task<void> Run(TaskGroup* group, Task<Status> task, Ledger* ledger) {
    co_await BindLedger(ledger);
    Status s = co_await std::move(task);
    if (!s.ok() && group->first_error_.ok()) group->first_error_ = s;
    group->last_ = ledger;
    group->wg_.Done();
  }

  Simulation* sim_;
  WaitGroup wg_;
  Status first_error_;
  Ledger* parent_;
  std::vector<std::unique_ptr<Ledger>> children_;
  Ledger* last_ = nullptr;  // the ledger of the task that finished last
};

// Waits for `done`, the event a spawned child sets when it finishes, and
// books the wait on the awaiting task's ledger from the child's by
// TaskGroup's join rule. Without either ledger it only waits.
inline Task<void> AwaitChild(Simulation* sim, Event* done, Ledger* child) {
  Ledger* parent = co_await CurrentLedger();
  const Tick from = sim->Now();
  if (child != nullptr) child->Rebase(from);
  co_await done->Wait();
  if (parent != nullptr && child != nullptr) {
    parent->Join(child, from, sim->Now());
  }
}

namespace detail {

template <typename Fn>
struct ParallelForState {
  std::size_t next = 0;
  std::size_t n = 0;
  Fn* fn = nullptr;
  bool failed = false;
};

template <typename Fn>
Task<Status> ParallelForWorker(ParallelForState<Fn>* state) {
  while (!state->failed && state->next < state->n) {
    const std::size_t i = state->next++;
    Status s = co_await (*state->fn)(i);
    if (!s.ok()) {
      state->failed = true;
      co_return s;
    }
  }
  co_return Status::Ok();
}

}  // namespace detail

// Runs fn(0), fn(1), ..., fn(n-1) with at most `workers` instances in
// flight. Indexes are claimed in order, so with workers == 1 this is a
// plain sequential loop. On the first failure no further indexes are
// claimed (in-flight iterations still complete) and the error is
// returned. `fn` is a callable returning Task<Status>; it must stay valid
// until ParallelFor returns, which the join guarantees for lambdas living
// in the caller's frame.
template <typename Fn>
Task<Status> ParallelFor(Simulation* sim, std::size_t n, std::uint32_t workers,
                         Fn fn) {
  detail::ParallelForState<Fn> state;
  state.n = n;
  state.fn = &fn;
  const std::size_t count =
      std::min<std::size_t>(std::max<std::uint32_t>(workers, 1), n);
  Ledger* ledger = co_await CurrentLedger();
  TaskGroup group(sim, ledger);
  for (std::size_t i = 0; i < count; ++i) {
    group.Spawn(detail::ParallelForWorker(&state));
  }
  co_return co_await group.Wait();
}

namespace detail {

template <typename T>
struct OrderedSlot {
  explicit OrderedSlot(Simulation* sim) : done(sim) {}
  Result<T> result{Status::Aborted("ordered slot pending")};
  Event done;
  Ledger* ledger = nullptr;  // the producer's
};

template <typename T, typename Produce>
Task<Status> OrderedProduce(Produce* produce, std::size_t i,
                            OrderedSlot<T>* slot) {
  slot->result = co_await (*produce)(i);
  slot->done.Set();
  co_return Status::Ok();
}

}  // namespace detail

// A read-ahead ring: runs produce(i) for i in [0, n) with at most `window`
// instances in flight, and hands each result to consume(i, T&&) strictly
// in index order. The producer for i + window is issued as soon as
// consume(i) starts, so producing overlaps consuming, and at most `window`
// results (plus the one being consumed) are ever held. `produce` returns
// Task<Result<T>>, `consume` returns Task<Status>. The first failure (a
// producer error met in index order, or a consumer error) stops the loop:
// no further indexes are issued, the in-flight producers are joined, and
// the error is returned.
template <typename T, typename Produce, typename Consume>
Task<Status> OrderedParallelFor(Simulation* sim, std::size_t n,
                                std::uint32_t window, Produce produce,
                                Consume consume) {
  const std::size_t width =
      std::min<std::size_t>(std::max<std::uint32_t>(window, 1), n);
  std::deque<detail::OrderedSlot<T>> slots;
  for (std::size_t s = 0; s < width; ++s) slots.emplace_back(sim);
  Ledger* ledger = co_await CurrentLedger();
  TaskGroup producers(sim, ledger);
  std::size_t issued = 0;
  auto issue = [&] {
    detail::OrderedSlot<T>& slot = slots[issued % width];
    slot.done.Reset();
    slot.ledger =
        producers.Spawn(detail::OrderedProduce<T>(&produce, issued, &slot));
    ++issued;
  };
  while (issued < width) issue();

  Status status = Status::Ok();
  for (std::size_t i = 0; i < n && status.ok(); ++i) {
    detail::OrderedSlot<T>& slot = slots[i % width];
    co_await AwaitChild(sim, &slot.done, slot.ledger);
    Result<T> result = std::move(slot.result);
    if (!result.ok()) {
      status = result.status();
      break;
    }
    if (issued < n) issue();  // reuses slot i % width, just emptied
    status = co_await consume(i, std::move(*result));
  }
  // OrderedProduce always returns OK: a producer's error travels in its
  // slot and is returned above, so the join only waits
  // (OrderedParallelForTest.ErrorStopsIssuingAndJoinsProducers).
  (void)co_await producers.Wait();
  co_return status;
}

// Bounded hand-off queue connecting pipeline stages. Push() suspends while
// `capacity` items are unconsumed (backpressure bounds the DRAM the
// pipeline can hold); Pop() suspends while the queue is empty. After
// Close(), Pop() returns nullopt once the queue drains; consumers should
// keep popping until then so a blocked producer is always released.
template <typename T>
class BoundedChannel {
 public:
  BoundedChannel(Simulation* sim, std::size_t capacity)
      : slots_(sim, capacity == 0 ? 1 : capacity), avail_(sim, 0) {}
  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  Task<void> Push(T item) {
    co_await slots_.Acquire();
    items_.push_back(std::move(item));
    avail_.Release();
  }

  Task<std::optional<T>> Pop() {
    co_await avail_.Acquire();
    if (items_.empty()) {
      // Woken by Close(): re-release so any other popper also wakes.
      avail_.Release();
      co_return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    slots_.Release();
    co_return item;
  }

  void Close() { avail_.Release(); }

  std::size_t size() const { return items_.size(); }

 private:
  Semaphore slots_;
  Semaphore avail_;
  std::deque<T> items_;
};

}  // namespace kvcsd::sim
