// Awaitable synchronization primitives for simulation processes.
//
// All of these are single-threaded (virtual concurrency only) and wake
// waiters *through the event queue* rather than by direct resumption, which
// keeps resumption order deterministic and stack depth bounded.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulation.h"

namespace kvcsd::sim {

// One-shot event ("gate"). Waiters block until Set() is called; waits after
// Set() complete immediately. Reset() re-arms it.
class Event {
 public:
  explicit Event(Simulation* sim) : sim_(sim) {}

  bool is_set() const { return set_; }

  void Set() {
    if (set_) return;
    set_ = true;
    for (auto handle : waiters_) sim_->ScheduleAt(sim_->Now(), handle);
    waiters_.clear();
  }

  void Reset() { set_ = false; }

  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) const {
        event->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Golang-style wait group: Wait() blocks until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation* sim) : sim_(sim) {}

  void Add(std::int64_t n = 1) { count_ += n; }

  void Done() {
    assert(count_ > 0);
    if (--count_ == 0) {
      for (auto handle : waiters_) sim_->ScheduleAt(sim_->Now(), handle);
      waiters_.clear();
    }
  }

  std::int64_t count() const { return count_; }

  auto Wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        wg->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::int64_t count_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO waiters. Release() hands the permit directly
// to the oldest waiter (no barging), so acquisition order is arrival order.
class Semaphore {
 public:
  Semaphore(Simulation* sim, std::uint64_t permits)
      : sim_(sim), permits_(permits) {}

  auto Acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept { return sem->permits_ > 0; }
      void await_suspend(std::coroutine_handle<> h) {
        handed_off = true;
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {
        // A waiter resumes holding the permit Release() handed it; only
        // the ready path takes one from the pool.
        if (!handed_off) --sem->permits_;
      }
      bool handed_off = false;
    };
    return Awaiter{this};
  }

  void Release() {
    if (!waiters_.empty()) {
      auto handle = waiters_.front();
      waiters_.pop_front();
      sim_->ScheduleAt(sim_->Now(), handle);
    } else {
      ++permits_;
    }
  }

  std::uint64_t available() const { return permits_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::uint64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Unbounded MPMC channel. Pop() suspends while empty; Push() wakes the
// oldest popper. Used for NVMe submission queues and device work queues.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation* sim) : sim_(sim) {}

  void Push(T item) {
    if (!poppers_.empty()) {
      PopWaiter* waiter = poppers_.front();
      poppers_.pop_front();
      waiter->slot.emplace(std::move(item));
      sim_->ScheduleAt(sim_->Now(), waiter->handle);
    } else {
      items_.push_back(std::move(item));
    }
  }

  auto Pop() {
    struct Awaiter : PopWaiter {
      Channel* channel;
      explicit Awaiter(Channel* c) : channel(c) {}
      bool await_ready() const noexcept { return !channel->items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        channel->poppers_.push_back(this);
      }
      T await_resume() {
        if (this->slot.has_value()) return std::move(*this->slot);
        T item = std::move(channel->items_.front());
        channel->items_.pop_front();
        return item;
      }
    };
    return Awaiter{this};
  }

  // Non-blocking pop: empty optional when no item is queued. Safe to mix
  // with Pop() — poppers only ever park while `items_` is empty, so a
  // successful TryPop can never race a parked popper out of its item.
  std::optional<T> TryPop() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  struct PopWaiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

  Simulation* sim_;
  std::deque<T> items_;
  std::deque<PopWaiter*> poppers_;
};

}  // namespace kvcsd::sim
