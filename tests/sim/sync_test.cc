#include "sim/sync.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace kvcsd::sim {
namespace {

TEST(EventTest, WaitersResumeOnSet) {
  Simulation sim;
  Event ev(&sim);
  std::vector<Tick> wake_times;
  auto waiter = [](Simulation* s, Event* e, std::vector<Tick>* log)
      -> Task<void> {
    co_await e->Wait();
    log->push_back(s->Now());
  };
  for (int i = 0; i < 3; ++i) sim.Spawn(waiter(&sim, &ev, &wake_times));
  sim.Spawn([](Simulation* s, Event* e) -> Task<void> {
    co_await s->Delay(500);
    e->Set();
  }(&sim, &ev));
  sim.Run();
  ASSERT_EQ(wake_times.size(), 3u);
  for (Tick t : wake_times) EXPECT_EQ(t, 500u);
}

TEST(EventTest, WaitAfterSetIsImmediate) {
  Simulation sim;
  Event ev(&sim);
  ev.Set();
  Tick woke = 999;
  sim.Spawn([](Simulation* s, Event* e, Tick* out) -> Task<void> {
    co_await s->Delay(10);
    co_await e->Wait();
    *out = s->Now();
  }(&sim, &ev, &woke));
  sim.Run();
  EXPECT_EQ(woke, 10u);
}

TEST(EventTest, ResetReArms) {
  Simulation sim;
  Event ev(&sim);
  ev.Set();
  ev.Reset();
  EXPECT_FALSE(ev.is_set());
}

TEST(WaitGroupTest, WaitBlocksUntilAllDone) {
  Simulation sim;
  WaitGroup wg(&sim);
  wg.Add(3);
  auto worker = [](Simulation* s, WaitGroup* g, Tick cost) -> Task<void> {
    co_await s->Delay(cost);
    g->Done();
  };
  sim.Spawn(worker(&sim, &wg, 100));
  sim.Spawn(worker(&sim, &wg, 300));
  sim.Spawn(worker(&sim, &wg, 200));
  Tick finished = 0;
  sim.Spawn([](Simulation* s, WaitGroup* g, Tick* out) -> Task<void> {
    co_await g->Wait();
    *out = s->Now();
  }(&sim, &wg, &finished));
  sim.Run();
  EXPECT_EQ(finished, 300u);
  EXPECT_EQ(wg.count(), 0);
}

TEST(WaitGroupTest, WaitOnZeroCountIsImmediate) {
  Simulation sim;
  WaitGroup wg(&sim);
  bool done = false;
  sim.Spawn([](WaitGroup* g, bool* flag) -> Task<void> {
    co_await g->Wait();
    *flag = true;
  }(&wg, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(&sim, 2);
  int concurrent = 0, peak = 0;
  auto worker = [](Simulation* s, Semaphore* sm, int* cur, int* pk)
      -> Task<void> {
    co_await sm->Acquire();
    ++*cur;
    *pk = std::max(*pk, *cur);
    co_await s->Delay(100);
    --*cur;
    sm->Release();
  };
  for (int i = 0; i < 10; ++i) {
    sim.Spawn(worker(&sim, &sem, &concurrent, &peak));
  }
  sim.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(concurrent, 0);
  // 10 jobs, 2 at a time, 100ns each -> 500ns.
  EXPECT_EQ(sim.Now(), 500u);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(SemaphoreTest, FifoOrder) {
  Simulation sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  auto worker = [](Simulation* s, Semaphore* sm, std::vector<int>* log,
                   int id) -> Task<void> {
    co_await sm->Acquire();
    log->push_back(id);
    co_await s->Delay(10);
    sm->Release();
  };
  for (int id = 0; id < 6; ++id) sim.Spawn(worker(&sim, &sem, &order, id));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SemaphoreTest, MixedHandoffAndFreshPermitsAccounting) {
  // Interleave waiters and releases so permits move both through direct
  // handoff and through the free pool.
  Simulation sim;
  Semaphore sem(&sim, 0);
  int acquired = 0;
  auto taker = [](Semaphore* sm, int* count) -> Task<void> {
    co_await sm->Acquire();
    ++*count;
  };
  for (int i = 0; i < 5; ++i) sim.Spawn(taker(&sem, &acquired));
  sim.Spawn([](Simulation* s, Semaphore* sm) -> Task<void> {
    for (int i = 0; i < 7; ++i) {
      co_await s->Delay(10);
      sm->Release();
    }
  }(&sim, &sem));
  sim.Run();
  EXPECT_EQ(acquired, 5);
  EXPECT_EQ(sem.available(), 2u);  // 7 releases - 5 acquisitions
  EXPECT_EQ(sem.waiting(), 0u);
}

// Semaphore holder bookkeeping for the handoff test below.
struct Holders {
  Semaphore* sem;
  int count = 0;
  int peak = 0;

  Task<void> Take() {
    co_await sem->Acquire();
    peak = std::max(peak, ++count);
  }
  void Give() {
    --count;
    sem->Release();
  }
};

// Two permits, both held, one waiter. The first release hands its permit
// to the waiter, the second returns one to the pool. A holder that
// re-acquires twice before the waiter runs may take only the pooled
// permit, so there are never more than two holders.
TEST(SemaphoreTest, ReadyAcquireCannotTakeAHandedOffPermit) {
  Simulation sim;
  Semaphore sem(&sim, 2);
  Holders h{&sem};
  sim.Spawn([](Simulation* s, Holders* hs) -> Task<void> {
    co_await hs->Take();
    co_await s->Delay(10);
    hs->Give();  // handed to the waiter
  }(&sim, &h));
  sim.Spawn([](Simulation* s, Holders* hs) -> Task<void> {
    co_await hs->Take();
    co_await s->Delay(10);
    hs->Give();  // back to the pool: the waiter is already served
    co_await hs->Take();
    co_await hs->Take();
    co_await s->Delay(10);
    hs->Give();
    hs->Give();
  }(&sim, &h));
  sim.Spawn([](Simulation* s, Holders* hs) -> Task<void> {
    co_await s->Delay(1);
    co_await hs->Take();  // queues at t=1, runs after both releases
    co_await s->Delay(10);
    hs->Give();
  }(&sim, &h));
  sim.Run();
  EXPECT_EQ(h.peak, 2);
  EXPECT_EQ(h.count, 0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(ChannelTest, PushThenPop) {
  Simulation sim;
  Channel<int> ch(&sim);
  ch.Push(1);
  ch.Push(2);
  std::vector<int> got;
  sim.Spawn([](Channel<int>* c, std::vector<int>* out) -> Task<void> {
    out->push_back(co_await c->Pop());
    out->push_back(co_await c->Pop());
  }(&ch, &got));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, PopBlocksUntilPush) {
  Simulation sim;
  Channel<std::string> ch(&sim);
  Tick pop_time = 0;
  std::string got;
  sim.Spawn([](Simulation* s, Channel<std::string>* c, Tick* t,
               std::string* out) -> Task<void> {
    *out = co_await c->Pop();
    *t = s->Now();
  }(&sim, &ch, &pop_time, &got));
  sim.Spawn([](Simulation* s, Channel<std::string>* c) -> Task<void> {
    co_await s->Delay(250);
    c->Push("payload");
  }(&sim, &ch));
  sim.Run();
  EXPECT_EQ(got, "payload");
  EXPECT_EQ(pop_time, 250u);
}

TEST(ChannelTest, MultipleBlockedPoppersServedFifo) {
  Simulation sim;
  Channel<int> ch(&sim);
  std::vector<std::pair<int, int>> got;  // (popper id, value)
  auto popper = [](Channel<int>* c, std::vector<std::pair<int, int>>* out,
                   int id) -> Task<void> {
    int v = co_await c->Pop();
    out->emplace_back(id, v);
  };
  for (int id = 0; id < 3; ++id) sim.Spawn(popper(&ch, &got, id));
  sim.Spawn([](Simulation* s, Channel<int>* c) -> Task<void> {
    co_await s->Delay(5);
    c->Push(100);
    c->Push(200);
    c->Push(300);
  }(&sim, &ch));
  sim.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
  EXPECT_EQ(got[2], std::make_pair(2, 300));
}

TEST(ChannelTest, WorkQueuePipeline) {
  // Producer/consumer steady state: consumer processes each item in 10ns,
  // producer emits every 3ns; total time is bounded by the consumer.
  Simulation sim;
  Channel<int> ch(&sim);
  int processed = 0;
  constexpr int kItems = 100;
  sim.Spawn([](Simulation* s, Channel<int>* c) -> Task<void> {
    for (int i = 0; i < kItems; ++i) {
      co_await s->Delay(3);
      c->Push(i);
    }
  }(&sim, &ch));
  sim.Spawn([](Simulation* s, Channel<int>* c, int* count) -> Task<void> {
    for (int i = 0; i < kItems; ++i) {
      int v = co_await c->Pop();
      EXPECT_EQ(v, i);  // FIFO
      co_await s->Delay(10);
      ++*count;
    }
  }(&sim, &ch, &processed));
  sim.Run();
  EXPECT_EQ(processed, kItems);
  EXPECT_EQ(sim.Now(), 3u + kItems * 10u);  // first arrival + service
}

}  // namespace
}  // namespace kvcsd::sim
