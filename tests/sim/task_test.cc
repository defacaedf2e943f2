#include "sim/task.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulation.h"

namespace kvcsd::sim {
namespace {

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.Run(), 0u);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  Tick observed = 0;
  sim.Spawn([](Simulation* s, Tick* out) -> Task<void> {
    co_await s->Delay(Microseconds(5));
    *out = s->Now();
  }(&sim, &observed));
  sim.Run();
  EXPECT_EQ(observed, Microseconds(5));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(SimulationTest, SequentialDelaysAccumulate) {
  Simulation sim;
  Tick observed = 0;
  sim.Spawn([](Simulation* s, Tick* out) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await s->Delay(100);
    *out = s->Now();
  }(&sim, &observed));
  sim.Run();
  EXPECT_EQ(observed, 1000u);
}

TEST(SimulationTest, ProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation* s, std::vector<int>* log, int id,
                 Tick step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s->Delay(step);
      log->push_back(id);
    }
  };
  sim.Spawn(proc(&sim, &order, 1, 10));
  sim.Spawn(proc(&sim, &order, 2, 15));
  sim.Run();
  // t=10: 1. t=15: 2. t=20: 1. t=30: both finish a delay; 2's wakeup was
  // scheduled at t=15, before 1's at t=20, so FIFO resumes 2 first. t=45: 2
  // is already done; the last event is 1's at t=30 and 2's at t=45.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(SimulationTest, EqualTimeEventsFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation* s, std::vector<int>* log, int id) -> Task<void> {
    co_await s->Delay(50);
    log->push_back(id);
  };
  for (int id = 0; id < 8; ++id) sim.Spawn(proc(&sim, &order, id));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TaskTest, NestedTasksReturnValues) {
  Simulation sim;
  int result = 0;
  auto leaf = [](Simulation* s) -> Task<int> {
    co_await s->Delay(7);
    co_return 21;
  };
  auto mid = [&leaf](Simulation* s) -> Task<int> {
    int a = co_await leaf(s);
    int b = co_await leaf(s);
    co_return a + b;
  };
  sim.Spawn([](Simulation* s, decltype(mid)* m, int* out) -> Task<void> {
    *out = co_await (*m)(s);
  }(&sim, &mid, &result));
  sim.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.Now(), 14u);
}

TEST(TaskTest, DeeplyNestedAwaitChain) {
  // Exercises symmetric transfer: a deep chain must not overflow the stack.
  Simulation sim;
  struct Recurse {
    static Task<int> Run(Simulation* s, int depth) {
      if (depth == 0) {
        co_await s->Delay(1);
        co_return 0;
      }
      int below = co_await Run(s, depth - 1);
      co_return below + 1;
    }
  };
  int result = -1;
  sim.Spawn([](Simulation* s, int* out) -> Task<void> {
    *out = co_await Recurse::Run(s, 5000);
  }(&sim, &result));
  sim.Run();
  EXPECT_EQ(result, 5000);
}

TEST(TaskTest, MillionSynchronousAwaitsInOneLoop) {
  // Every await completes without suspending, so without the scheduler's
  // trampoline each one would nest native frames (GCC at -O0 does not
  // tail-call symmetric transfer) until the stack overflowed. The
  // trampoline must also keep same-tick order: the loop, spawned first,
  // finishes before the process spawned after it starts.
  Simulation sim;
  constexpr std::uint64_t kAwaits = 1'000'000;
  struct Loop {
    static Task<std::uint64_t> Immediate(std::uint64_t i) { co_return i; }
    static Task<void> Run(std::uint64_t* done, std::uint64_t* sum) {
      for (std::uint64_t i = 0; i < kAwaits; ++i) {
        *sum += co_await Immediate(i);
        ++*done;
      }
    }
  };
  std::uint64_t done = 0;
  std::uint64_t sum = 0;
  std::uint64_t seen_by_next = 0;
  sim.Spawn(Loop::Run(&done, &sum));
  sim.Spawn([](const std::uint64_t* progress,
               std::uint64_t* seen) -> Task<void> {
    *seen = *progress;
    co_return;
  }(&done, &seen_by_next));
  sim.Run();
  EXPECT_EQ(done, kAwaits);
  EXPECT_EQ(sum, kAwaits * (kAwaits - 1) / 2);
  EXPECT_EQ(seen_by_next, kAwaits);
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(TaskTest, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation* s) -> Task<void> {
    co_await s->Delay(1);
    throw std::runtime_error("boom");
  };
  sim.Spawn([](Simulation* s, decltype(thrower)* t, bool* flag)
                -> Task<void> {
    try {
      co_await (*t)(s);
    } catch (const std::runtime_error& e) {
      *flag = std::string(e.what()) == "boom";
    }
  }(&sim, &thrower, &caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(TaskTest, UnstartedTaskIsDestroyedCleanly) {
  // A Task that is created but never awaited must not leak or crash.
  bool ran = false;
  {
    auto t = [](bool* flag) -> Task<void> {
      *flag = true;
      co_return;
    }(&ran);
    EXPECT_TRUE(t.valid());
  }
  EXPECT_FALSE(ran);  // lazy: never started
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int ticks = 0;
  sim.Spawn([](Simulation* s, int* count) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await s->Delay(10);
      ++*count;
    }
  }(&sim, &ticks));
  sim.RunUntil(55);
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.Now(), 55u);
  EXPECT_EQ(sim.live_processes(), 1u);
  sim.Run();
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(sim.live_processes(), 0u);
}

}  // namespace
}  // namespace kvcsd::sim
