#include "sim/parallel.h"

#include <gtest/gtest.h>

#include "sim/resources.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace kvcsd::sim {
namespace {

TEST(TaskGroupTest, WaitJoinsAllSpawnedTasks) {
  Simulation sim;
  std::vector<Tick> finished;
  sim.Spawn([](Simulation* s, std::vector<Tick>* log) -> Task<void> {
    TaskGroup group(s);
    auto worker = [](Simulation* sm, Tick delay,
                     std::vector<Tick>* out) -> Task<Status> {
      co_await sm->Delay(delay);
      out->push_back(sm->Now());
      co_return Status::Ok();
    };
    group.Spawn(worker(s, 300, log));
    group.Spawn(worker(s, 100, log));
    group.Spawn(worker(s, 200, log));
    Status result = co_await group.Wait();
    EXPECT_TRUE(result.ok());
    // Join happened after the slowest worker.
    EXPECT_EQ(s->Now(), 300u);
  }(&sim, &finished));
  sim.Run();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_TRUE(std::is_sorted(finished.begin(), finished.end()));
}

TEST(TaskGroupTest, FirstErrorIsReported) {
  Simulation sim;
  sim.Spawn([](Simulation* s) -> Task<void> {
    TaskGroup group(s);
    auto worker = [](Simulation* sm, Tick delay, Status st) -> Task<Status> {
      co_await sm->Delay(delay);
      co_return st;
    };
    group.Spawn(worker(s, 50, Status::Ok()));
    group.Spawn(worker(s, 20, Status::IoError("second")));
    group.Spawn(worker(s, 10, Status::Corruption("first")));
    Status result = co_await group.Wait();
    // First error in completion order wins.
    EXPECT_EQ(result.code(), StatusCode::kCorruption);
  }(&sim));
  sim.Run();
}

Task<Status> Charge(CpuPool* pool, Tick cost) {
  co_await pool->Compute(cost);
  co_return Status::Ok();
}

// The join rule: a parent that computes 20 ticks beside two children of
// 30 and 100 ticks books the last child's part of its wait (80 ticks of
// soc), and everything else the children booked is overlapped: the last
// child's first 20 ticks and all 30 of the first child's.
TEST(TaskGroupTest, ParentLedgerBooksTheLastChildAndOverlapsTheRest) {
  Simulation sim;
  CpuPool pool(&sim, "cpu", 3, {Layer::kSocWait, Layer::kSoc});
  Ledger parent(0);
  sim.Spawn([](Simulation* s, CpuPool* p, Ledger* l) -> Task<void> {
    co_await BindLedger(l);
    TaskGroup group(s, l);
    EXPECT_NE(group.Spawn(Charge(p, 30)), nullptr);
    EXPECT_NE(group.Spawn(Charge(p, 100)), nullptr);
    co_await p->Compute(20);
    Status result = co_await group.Wait();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(s->Now(), 100u);
  }(&sim, &pool, &parent));
  sim.Run();
  EXPECT_EQ(parent[Layer::kSoc], 100u);
  EXPECT_EQ(parent[Layer::kOther], 0u);
  EXPECT_EQ(parent.overlapped(), 20u + 30u);
  EXPECT_EQ(parent.Sum(), 100u);
  EXPECT_EQ(parent.cursor(), 100u);
}

// A child's span that nothing booked reaches the parent as `other`, and a
// group without a parent ledger gives its tasks none: the parent books
// nothing for that wait.
TEST(TaskGroupTest, UnbookedChildTimeIsOtherAndPlainGroupsKeepNoLedger) {
  Simulation sim;
  CpuPool pool(&sim, "cpu", 1, {Layer::kSocWait, Layer::kSoc});
  Ledger parent(0);
  sim.Spawn([](Simulation* s, CpuPool* p, Ledger* l) -> Task<void> {
    co_await BindLedger(l);
    TaskGroup group(s, l);
    group.Spawn([](Simulation* sm, CpuPool* pl) -> Task<Status> {
      co_await sm->Delay(50);
      co_await pl->Compute(10);
      co_return Status::Ok();
    }(s, p));
    Status result = co_await group.Wait();
    EXPECT_TRUE(result.ok());
    TaskGroup plain(s);
    EXPECT_EQ(plain.Spawn([](CpuPool* pl) -> Task<Status> {
      Ledger* none = co_await CurrentLedger();
      EXPECT_EQ(none, nullptr);
      co_await pl->Compute(5);
      co_return Status::Ok();
    }(p)),
              nullptr);
    result = co_await plain.Wait();
    EXPECT_TRUE(result.ok());
  }(&sim, &pool, &parent));
  sim.Run();
  EXPECT_EQ(parent[Layer::kOther], 50u);
  EXPECT_EQ(parent[Layer::kSoc], 10u);
  EXPECT_EQ(parent.overlapped(), 0u);
  EXPECT_EQ(parent.cursor(), 60u);
}

TEST(ParallelForTest, VisitsEveryIndexAndBoundsConcurrency) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    int active = 0;
    int max_active = 0;
    std::vector<std::size_t> visited;
  } state;
  state.sim = &sim;
  sim.Spawn([](State* st) -> Task<void> {
    auto fn = [st](std::size_t i) -> Task<Status> {
      ++st->active;
      st->max_active = std::max(st->max_active, st->active);
      co_await st->sim->Delay(10);
      st->visited.push_back(i);
      --st->active;
      co_return Status::Ok();
    };
    Status s = co_await ParallelFor(st->sim, 10, 3, fn);
    EXPECT_TRUE(s.ok());
  }(&state));
  sim.Run();
  EXPECT_EQ(state.visited.size(), 10u);
  EXPECT_EQ(state.max_active, 3);
  std::vector<std::size_t> sorted = state.visited;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ParallelForTest, SingleWorkerRunsSequentiallyInOrder) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    std::vector<std::size_t> visited;
  } state;
  state.sim = &sim;
  sim.Spawn([](State* st) -> Task<void> {
    auto fn = [st](std::size_t i) -> Task<Status> {
      co_await st->sim->Delay(1);
      st->visited.push_back(i);
      co_return Status::Ok();
    };
    EXPECT_TRUE((co_await ParallelFor(st->sim, 5, 1, fn)).ok());
  }(&state));
  sim.Run();
  EXPECT_EQ(state.visited, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ErrorStopsClaimingFurtherIndexes) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    std::vector<std::size_t> started;
  } state;
  state.sim = &sim;
  sim.Spawn([](State* st) -> Task<void> {
    auto fn = [st](std::size_t i) -> Task<Status> {
      st->started.push_back(i);
      co_await st->sim->Delay(1);
      if (i == 2) co_return Status::IoError("boom");
      co_return Status::Ok();
    };
    Status s = co_await ParallelFor(st->sim, 100, 1, fn);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }(&state));
  sim.Run();
  // Sequential worker: indexes 0..2 ran, everything after the failure was
  // never claimed.
  EXPECT_EQ(state.started, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OrderedParallelForTest, ConsumesInIndexOrderWithinTheWindow) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    int producing = 0;
    int max_producing = 0;
    std::vector<std::size_t> consumed;
    std::vector<Tick> consumed_at;
  } state;
  state.sim = &sim;
  sim.Spawn([](State* st) -> Task<void> {
    // Even indexes take 30 ticks, odd ones 10: completion order is not
    // index order, consumption must be.
    auto produce = [st](std::size_t i) -> Task<Result<std::size_t>> {
      ++st->producing;
      st->max_producing = std::max(st->max_producing, st->producing);
      co_await st->sim->Delay(i % 2 == 0 ? 30 : 10);
      --st->producing;
      co_return i * 10;
    };
    auto consume = [st](std::size_t i, std::size_t value) -> Task<Status> {
      EXPECT_EQ(value, i * 10);
      st->consumed.push_back(i);
      st->consumed_at.push_back(st->sim->Now());
      co_await st->sim->Delay(5);
      co_return Status::Ok();
    };
    Status s = co_await OrderedParallelFor<std::size_t>(st->sim, 8, 3,
                                                        produce, consume);
    EXPECT_TRUE(s.ok());
  }(&state));
  sim.Run();
  EXPECT_EQ(state.consumed,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(state.max_producing, 3);
  // Index 3 was issued as index 0 was consumed (t=30) and was ready at
  // t=40, before its turn came: consumption of 0..2 (5 ticks each) ends
  // at t=45, and index 3 is consumed right then.
  EXPECT_EQ(state.consumed_at[3], 45u);
}

TEST(OrderedParallelForTest, ErrorStopsIssuingAndJoinsProducers) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    int producing = 0;
    std::vector<std::size_t> issued;
    std::vector<std::size_t> consumed;
  } state;
  state.sim = &sim;
  sim.Spawn([](State* st) -> Task<void> {
    auto produce = [st](std::size_t i) -> Task<Result<int>> {
      st->issued.push_back(i);
      ++st->producing;
      co_await st->sim->Delay(10);
      --st->producing;
      if (i == 2) co_return Status::IoError("bad block");
      co_return 1;
    };
    auto consume = [st](std::size_t i, int) -> Task<Status> {
      st->consumed.push_back(i);
      co_return Status::Ok();
    };
    Status s = co_await OrderedParallelFor<int>(st->sim, 100, 4, produce,
                                                consume);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_EQ(st->producing, 0);  // every in-flight producer was joined
  }(&state));
  sim.Run();
  EXPECT_EQ(state.consumed, (std::vector<std::size_t>{0, 1}));
  // The window (0..3) plus the refills issued as 0 and 1 were consumed.
  EXPECT_EQ(state.issued, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(BoundedChannelTest, PushBlocksAtCapacity) {
  Simulation sim;
  struct State {
    Simulation* sim = nullptr;
    BoundedChannel<int>* ch = nullptr;
    std::vector<Tick> push_times;
    std::vector<int> popped;
  } state;
  BoundedChannel<int> ch(&sim, 1);
  state.sim = &sim;
  state.ch = &ch;
  sim.Spawn([](State* st) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await st->ch->Push(i);
      st->push_times.push_back(st->sim->Now());
    }
    st->ch->Close();
  }(&state));
  sim.Spawn([](State* st) -> Task<void> {
    for (;;) {
      co_await st->sim->Delay(100);
      auto item = co_await st->ch->Pop();
      if (!item.has_value()) break;
      st->popped.push_back(*item);
    }
  }(&state));
  sim.Run();
  EXPECT_EQ(state.popped, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(state.push_times.size(), 3u);
  // First push is immediate; each later push had to wait for a pop.
  EXPECT_EQ(state.push_times[0], 0u);
  EXPECT_EQ(state.push_times[1], 100u);
  EXPECT_EQ(state.push_times[2], 200u);
}

TEST(BoundedChannelTest, CloseDrainsQueuedItemsThenSignalsEnd) {
  Simulation sim;
  struct State {
    BoundedChannel<std::string>* ch = nullptr;
    std::vector<std::string> popped;
    int end_signals = 0;
  } state;
  BoundedChannel<std::string> ch(&sim, 4);
  state.ch = &ch;
  sim.Spawn([](State* st) -> Task<void> {
    co_await st->ch->Push("a");
    co_await st->ch->Push("b");
    st->ch->Close();
  }(&state));
  // Two consumers: queued items are delivered, then BOTH see end-of-stream
  // (Close's wake token is re-released by each finishing popper).
  for (int c = 0; c < 2; ++c) {
    sim.Spawn([](State* st) -> Task<void> {
      for (;;) {
        auto item = co_await st->ch->Pop();
        if (!item.has_value()) {
          ++st->end_signals;
          co_return;
        }
        st->popped.push_back(*item);
      }
    }(&state));
  }
  sim.Run();
  EXPECT_EQ(state.popped, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(state.end_signals, 2);
}

}  // namespace
}  // namespace kvcsd::sim
