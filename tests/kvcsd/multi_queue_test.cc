// Multi-queue host path (DESIGN.md §11): async futures reaped by the
// per-client reactor, sync calls inside the same admission window, SQ/CQ
// arbitration fairness, retry backoff, and
// exactly-once completion across a power cycle with commands in flight on
// multiple queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "kvcsd/device.h"
#include "sim/fault.h"
#include "sim/parallel.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

// A device behind `queues`, wired to the test's injector; half of an
// in-flight append survives a power cut.
harness::TestbedConfig QueueBed(sim::FaultInjector* faults,
                                const nvme::QueueSetConfig& queues) {
  faults->set_torn_tail_keep(0.5);
  harness::TestbedConfig c = testutil::Bed(SmallDevice(), faults);
  c.queues = queues;
  return c;
}

// A client of its own over the testbed's current queue set.
client::Client MakeClient(harness::CsdTestbed* f,
                          client::ClientConfig config = {}) {
  return client::Client(&f->queue(), &f->host_cpu(),
                        hostenv::CostModel::Host(), std::move(config));
}

nvme::QueueSetConfig TwoQueues() {
  nvme::QueueSetConfig q;
  q.num_queues = 2;
  return q;
}

std::string DetValue(std::uint64_t i) { return "value-" + std::to_string(i); }

// ---------------------------------------------------------------------------
// Async futures: puts and gets through the reactor, spread over two SQs.
// ---------------------------------------------------------------------------

TEST(MultiQueueTest, AsyncPutsAndGetsSpreadAcrossQueues) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, TwoQueues()));
  client::Client db = MakeClient(&f);  // kAnyQueue: round-robin across SQs
  constexpr std::uint64_t kKeys = 96;
  constexpr std::uint64_t kDepth = 16;

  testutil::RunSim(f.sim(), [](client::Client* c) -> sim::Task<void> {
    auto ks = co_await c->CreateKeyspace("async");
    KVCSD_CO_ASSERT_OK(ks);

    // Bounded in-flight window of async puts, reaped in issue order.
    std::deque<client::Future<Status>> window;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      if (window.size() >= kDepth) {
        KVCSD_CO_ASSERT_OK(co_await window.front().Await());
        window.pop_front();
      }
      auto put = co_await ks->PutAsync(MakeFixedKey(i), DetValue(i));
      window.push_back(std::move(put));
    }
    while (!window.empty()) {
      KVCSD_CO_ASSERT_OK(co_await window.front().Await());
      window.pop_front();
    }
    KVCSD_CO_ASSERT(c->queue().inflight() == 0);

    KVCSD_CO_ASSERT_OK(co_await ks->Sync());
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());

    // Async reads, awaited in issue order against expected values.
    std::deque<
        std::pair<std::uint64_t, client::Future<Result<std::string>>>>
        reads;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      if (reads.size() >= kDepth) {
        auto got = co_await reads.front().second.Await();
        KVCSD_CO_ASSERT_OK(got);
        KVCSD_CO_ASSERT(*got == DetValue(reads.front().first));
        reads.pop_front();
      }
      auto get = co_await ks->GetAsync(MakeFixedKey(i));
      reads.emplace_back(i, std::move(get));
    }
    while (!reads.empty()) {
      auto got = co_await reads.front().second.Await();
      KVCSD_CO_ASSERT_OK(got);
      KVCSD_CO_ASSERT(*got == DetValue(reads.front().first));
      reads.pop_front();
    }
    KVCSD_CO_ASSERT(c->queue().inflight() == 0);
  }(&db));

  // Round-robin client placement exercised both pairs.
  EXPECT_GT(f.queue().pair(0)->submitted(), 0u);
  EXPECT_GT(f.queue().pair(1)->submitted(), 0u);
  EXPECT_EQ(f.queue().inflight(), 0u);
}

TEST(MultiQueueTest, BatchedPutsCompleteAndReadBack) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, TwoQueues()));
  client::Client db = MakeClient(&f);
  constexpr std::uint64_t kKeys = 48;

  testutil::RunSim(f.sim(), [](client::Client* c) -> sim::Task<void> {
    auto ks = co_await c->CreateKeyspace("batched");
    KVCSD_CO_ASSERT_OK(ks);

    std::vector<std::pair<std::string, std::string>> pairs;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      pairs.emplace_back(MakeFixedKey(i), DetValue(i));
    }
    auto futures = co_await ks->PutBatchAsync(std::move(pairs));
    KVCSD_CO_ASSERT(futures.size() == kKeys);
    for (auto& future : futures) {
      KVCSD_CO_ASSERT_OK(co_await future.Await());
    }

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    for (std::uint64_t i = 0; i < kKeys; i += 7) {
      auto got = co_await ks->Get(MakeFixedKey(i));
      KVCSD_CO_ASSERT_OK(got);
      KVCSD_CO_ASSERT(*got == DetValue(i));
    }
  }(&db));
}

// ---------------------------------------------------------------------------
// A sync call is a batch of one, submitted and awaited: it takes an
// admission-window permit like any async command, so concurrent sync
// callers never put more than max_inflight commands on the wire.
// ---------------------------------------------------------------------------

TEST(MultiQueueTest, SyncCallsObeyAdmissionWindow) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, nvme::QueueSetConfig{}));
  client::ClientConfig cfg;
  cfg.max_inflight = 2;
  client::Client db = MakeClient(&f, cfg);
  constexpr std::uint64_t kCallers = 8;
  constexpr std::uint64_t kKeysPerCaller = 6;

  std::uint64_t peak = 0;
  bool stop = false;  // outlives both coroutines: the watcher reads it last
  testutil::RunSim(
      f.sim(),
      [](sim::Simulation* sim, client::Client* c, bool* stop_flag,
         std::uint64_t* peak_inflight) -> sim::Task<void> {
        // Watcher: samples commands submitted and not yet completed — a
        // lower bound on those not yet reaped — until the callers finish.
        struct StopOnExit {
          bool* flag;
          ~StopOnExit() { *flag = true; }
        } stop_on_exit{stop_flag};
        sim->Spawn([](sim::Simulation* s, client::Client* cl,
                      const bool* done, std::uint64_t* peak_out)
                       -> sim::Task<void> {
          while (!*done) {
            *peak_out = std::max(*peak_out, cl->queue().inflight());
            co_await s->Delay(Microseconds(1));
          }
        }(sim, c, stop_flag, peak_inflight));

        auto ks = co_await c->CreateKeyspace("window");
        KVCSD_CO_ASSERT_OK(ks);
        sim::TaskGroup puts(sim);
        for (std::uint64_t t = 0; t < kCallers; ++t) {
          puts.Spawn([](client::KeyspaceHandle h,
                        std::uint64_t caller) -> sim::Task<Status> {
            for (std::uint64_t i = 0; i < kKeysPerCaller; ++i) {
              const std::uint64_t id = caller * kKeysPerCaller + i;
              Status s = co_await h.Put(MakeFixedKey(id), DetValue(id));
              if (!s.ok()) co_return s;
            }
            co_return Status::Ok();
          }(*ks, t));
        }
        KVCSD_CO_ASSERT_OK(co_await puts.Wait());
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());

        sim::TaskGroup gets(sim);
        for (std::uint64_t t = 0; t < kCallers; ++t) {
          gets.Spawn([](client::KeyspaceHandle h,
                        std::uint64_t caller) -> sim::Task<Status> {
            for (std::uint64_t i = 0; i < kKeysPerCaller; ++i) {
              const std::uint64_t id = caller * kKeysPerCaller + i;
              Result<std::string> got = co_await h.Get(MakeFixedKey(id));
              if (!got.ok()) co_return got.status();
              if (*got != DetValue(id)) {
                co_return Status::Corruption("value mismatch");
              }
            }
            co_return Status::Ok();
          }(*ks, t));
        }
        KVCSD_CO_ASSERT_OK(co_await gets.Wait());
      }(&f.sim(), &db, &stop, &peak));

  // The window was full (the bound is tight) and never exceeded.
  EXPECT_EQ(peak, 2u);
  EXPECT_EQ(f.queue().inflight(), 0u);
}

// ---------------------------------------------------------------------------
// Fairness: a flooded queue cannot starve its neighbor.
// ---------------------------------------------------------------------------

TEST(MultiQueueTest, CompetingFullQueueCannotStarveNeighbor) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, TwoQueues()));
  client::ClientConfig flood_cfg;
  flood_cfg.queue_id = 0;
  flood_cfg.max_inflight = 256;
  flood_cfg.stats_prefix = "client.flood.";
  client::Client flooder = MakeClient(&f, flood_cfg);
  client::ClientConfig victim_cfg;
  victim_cfg.queue_id = 1;
  victim_cfg.stats_prefix = "client.victim.";
  client::Client victim = MakeClient(&f, victim_cfg);
  constexpr std::uint64_t kFloodPuts = 300;

  client::KeyspaceHandle flood_ks, victim_ks;
  testutil::RunSim(
      f.sim(),
      [](client::Client* fc, client::Client* vc,
         client::KeyspaceHandle* fks,
         client::KeyspaceHandle* vks) -> sim::Task<void> {
        auto a = co_await fc->CreateKeyspace("flood");
        KVCSD_CO_ASSERT_OK(a);
        *fks = *a;
        auto b = co_await vc->CreateKeyspace("victim");
        KVCSD_CO_ASSERT_OK(b);
        *vks = *b;
      }(&flooder, &victim, &flood_ks, &victim_ks));

  Tick flood_done = 0, victim_done = 0;
  std::uint64_t flood_completed_at_victim_done = 0;
  f.sim().Spawn([](sim::Simulation* sim, client::KeyspaceHandle ks,
                 Tick* done) -> sim::Task<void> {
    std::deque<client::Future<Status>> window;
    for (std::uint64_t i = 0; i < kFloodPuts; ++i) {
      if (window.size() >= 256) {
        KVCSD_CO_ASSERT_OK(co_await window.front().Await());
        window.pop_front();
      }
      auto put = co_await ks.PutAsync(MakeFixedKey(i), DetValue(i));
      window.push_back(std::move(put));
    }
    while (!window.empty()) {
      KVCSD_CO_ASSERT_OK(co_await window.front().Await());
      window.pop_front();
    }
    *done = sim->Now();
  }(&f.sim(), flood_ks, &flood_done));
  f.sim().Spawn([](sim::Simulation* sim, harness::CsdTestbed* fx,
                 client::KeyspaceHandle ks, Tick* done,
                 std::uint64_t* flood_completed) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await ks.Put(MakeFixedKey(1000 + i), DetValue(i)));
    }
    *done = sim->Now();
    *flood_completed = fx->queue().pair(0)->completed();
  }(&f.sim(), &f, victim_ks, &victim_done, &flood_completed_at_victim_done));
  f.sim().Run();

  // The victim's 8 puts finished while the flood was still in flight:
  // round-robin arbitration interleaved them instead of draining queue 0
  // first.
  EXPECT_GT(victim_done, 0u);
  EXPECT_GT(flood_done, 0u);
  EXPECT_LT(victim_done, flood_done);
  EXPECT_LT(flood_completed_at_victim_done, kFloodPuts);
  // Pinned clients stayed on their queues (plus one create each).
  EXPECT_GE(f.queue().pair(0)->submitted(), kFloodPuts);
  EXPECT_LT(f.queue().pair(1)->submitted(), 32u);
}

// ---------------------------------------------------------------------------
// FutureWindow: bounded in-flight futures, reaped in issue order.
// ---------------------------------------------------------------------------

// Loads keys 0..n-1 (DetValue) into `name` and compacts it, so GETs work.
sim::Task<Result<client::KeyspaceHandle>> LoadCompacted(
    client::Client* c, const std::string& name, std::uint64_t n) {
  auto ks = co_await c->CreateKeyspace(name);
  if (!ks.ok()) co_return ks;
  for (std::uint64_t i = 0; i < n; ++i) {
    Status s = co_await ks->Put(MakeFixedKey(i), DetValue(i));
    if (!s.ok()) co_return s;
  }
  Status s = co_await ks->Compact();
  if (s.ok()) s = co_await ks->WaitCompaction();
  if (!s.ok()) co_return s;
  co_return ks;
}

TEST(FutureWindowTest, NeverHoldsMoreThanDepthAndReapsInIssueOrder) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, nvme::QueueSetConfig{}));
  client::Client db = MakeClient(&f);
  testutil::RunSim(f.sim(), [](client::Client* c) -> sim::Task<void> {
    constexpr std::uint64_t kKeys = 40;
    constexpr std::size_t kDepth = 3;
    auto ks = co_await LoadCompacted(c, "window", kKeys);
    KVCSD_CO_ASSERT_OK(ks);
    std::vector<std::string> answers;
    client::FutureWindow<Result<std::string>> window(
        kDepth, [&answers](Result<std::string>& got) {
          answers.push_back(got.ok() ? *got : got.status().ToString());
        });
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      co_await window.Reserve();
      KVCSD_CO_ASSERT(window.size() < kDepth);
      // Answers come back exactly as far as the window had to reap.
      KVCSD_CO_ASSERT(answers.size() + window.size() == i);
      window.Push(co_await ks->GetAsync(MakeFixedKey(i)));
      KVCSD_CO_ASSERT(window.size() <= kDepth);
    }
    KVCSD_CO_ASSERT_OK(co_await window.Drain());
    KVCSD_CO_ASSERT(window.size() == 0);
    KVCSD_CO_ASSERT(answers.size() == kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT(answers[i] == DetValue(i));
    }
  }(&db));
}

TEST(FutureWindowTest, KeepsTheFirstErrorAndReapsTheRest) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, nvme::QueueSetConfig{}));
  client::Client db = MakeClient(&f);
  testutil::RunSim(f.sim(), [](client::Client* c) -> sim::Task<void> {
    auto sealed = co_await LoadCompacted(c, "sealed", 8);
    KVCSD_CO_ASSERT_OK(sealed);
    // Never compacted, so a GET on it fails, and not with NotFound.
    auto open = co_await c->CreateKeyspace("open");
    KVCSD_CO_ASSERT_OK(open);
    std::vector<Status> reaped;
    client::FutureWindow<Result<std::string>> window(
        2, [&reaped](Result<std::string>& got) {
          reaped.push_back(got.status());
        });
    std::vector<std::pair<client::KeyspaceHandle, std::string>> gets = {
        {*sealed, MakeFixedKey(0)}, {*open, MakeFixedKey(0)},
        {*sealed, MakeFixedKey(1)}, {*sealed, MakeFixedKey(99)},
        {*sealed, MakeFixedKey(2)}};
    for (auto& [ks, key] : gets) {
      co_await window.Reserve();
      window.Push(co_await ks.GetAsync(key));
    }
    const Status first = co_await window.Drain();
    KVCSD_CO_ASSERT(reaped.size() == gets.size());
    KVCSD_CO_ASSERT(reaped[0].ok() && reaped[2].ok() && reaped[4].ok());
    KVCSD_CO_ASSERT(!reaped[1].ok() && !reaped[1].IsNotFound());
    KVCSD_CO_ASSERT(reaped[3].IsNotFound());
    KVCSD_CO_ASSERT(first.code() == reaped[1].code());
    // Drain hands the error over once; the window is clean for reuse.
    KVCSD_CO_ASSERT(window.status().ok());
  }(&db));
}

// ---------------------------------------------------------------------------
// SyncWithRetry sleeps with exponential backoff and counts retries.
// ---------------------------------------------------------------------------

TEST(MultiQueueTest, SyncWithRetryBacksOffExponentially) {
  EXPECT_EQ(client::RetryBackoff(0), client::kRetryBackoffBase);
  EXPECT_EQ(client::RetryBackoff(1), 2 * client::kRetryBackoffBase);
  EXPECT_EQ(client::RetryBackoff(20), client::kRetryBackoffCap);

  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, nvme::QueueSetConfig{}));
  client::Client db = MakeClient(&f, client::ClientConfig{});

  testutil::RunSim(
      f.sim(),
      [](sim::Simulation* sim, client::Client* c,
         sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await c->CreateKeyspace("retry");
        KVCSD_CO_ASSERT_OK(ks);

        // One injected failure: attempt 1 fails, one base backoff, then
        // attempt 2 succeeds.
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1), "v1"));
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        Tick begin = sim->Now();
        KVCSD_CO_ASSERT_OK(co_await ks->SyncWithRetry(3));
        KVCSD_CO_ASSERT(sim->Now() - begin >= client::kRetryBackoffBase);
        KVCSD_CO_ASSERT(
            sim->stats().counter("client.sync.retries").value() == 1);

        // Two failures: backoffs of base then 2 * base before attempt 3.
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(2), "v2"));
        sim::ErrorRule twice;
        twice.op = sim::FaultOp::kAppend;
        twice.times = 2;
        faults->AddErrorRule(twice);
        begin = sim->Now();
        KVCSD_CO_ASSERT_OK(co_await ks->SyncWithRetry(3));
        KVCSD_CO_ASSERT(sim->Now() - begin >= 3 * client::kRetryBackoffBase);
        KVCSD_CO_ASSERT(
            sim->stats().counter("client.sync.retries").value() == 3);
      }(&f.sim(), &db, &injector));
}

// ---------------------------------------------------------------------------
// Exactly-once completion across a power cycle with in-flight commands
// on both queues: every future resolves (OK or powered-off error), no
// command completes twice, and synced data survives recovery.
// ---------------------------------------------------------------------------

TEST(MultiQueueTest, EveryCommandCompletesExactlyOnceAcrossPowerCycle) {
  sim::FaultInjector injector(7);
  harness::CsdTestbed f(QueueBed(&injector, TwoQueues()));
  constexpr std::uint64_t kSynced = 40;
  constexpr std::uint64_t kInflightPuts = 60;

  client::ClientConfig ca;
  ca.queue_id = 0;
  ca.max_inflight = 128;
  ca.stats_prefix = "client.a.";
  client::ClientConfig cb;
  cb.queue_id = 1;
  cb.max_inflight = 128;
  cb.stats_prefix = "client.b.";

  {
    client::Client a = MakeClient(&f, ca);
    client::Client b = MakeClient(&f, cb);
    std::uint64_t resolved = 0, failed = 0;
    testutil::RunSim(
        f.sim(),
        [](client::Client* ca2, client::Client* cb2,
           sim::FaultInjector* faults, std::uint64_t* n_resolved,
           std::uint64_t* n_failed) -> sim::Task<void> {
          auto ksa = co_await ca2->CreateKeyspace("a");
          KVCSD_CO_ASSERT_OK(ksa);
          auto ksb = co_await cb2->CreateKeyspace("b");
          KVCSD_CO_ASSERT_OK(ksb);
          for (std::uint64_t i = 0; i < kSynced; ++i) {
            KVCSD_CO_ASSERT_OK(
                co_await ksa->Put(MakeFixedKey(i), DetValue(i)));
            KVCSD_CO_ASSERT_OK(
                co_await ksb->Put(MakeFixedKey(i), DetValue(i)));
          }
          KVCSD_CO_ASSERT_OK(co_await ksa->Sync());
          KVCSD_CO_ASSERT_OK(co_await ksb->Sync());

          // Flood both queues with async puts, then cut power with the
          // tail still in flight (no suspension between the last submit
          // and the crash, so at least that command is unserviced).
          std::vector<client::Future<Status>> futures;
          for (std::uint64_t i = 0; i < kInflightPuts; ++i) {
            auto pa =
                co_await ksa->PutAsync(MakeFixedKey(kSynced + i), "late");
            futures.push_back(std::move(pa));
            auto pb =
                co_await ksb->PutAsync(MakeFixedKey(kSynced + i), "late");
            futures.push_back(std::move(pb));
          }
          faults->Crash();

          // Every future resolves exactly once; after the crash the
          // device answers the backlog with powered-off errors.
          for (auto& future : futures) {
            Status s = co_await future.Await();
            ++*n_resolved;
            if (!s.ok()) ++*n_failed;
          }
          KVCSD_CO_ASSERT(ca2->queue().inflight() == 0);
        }(&a, &b, &injector, &resolved, &failed));

    EXPECT_EQ(resolved, 2 * kInflightPuts);
    EXPECT_GT(failed, 0u);  // the crash caught commands in flight
    // Both pairs drained: completions posted once per submission.
    EXPECT_EQ(f.queue().pair(0)->submitted(), f.queue().pair(0)->completed());
    EXPECT_EQ(f.queue().pair(1)->submitted(), f.queue().pair(1)->completed());
    EXPECT_EQ(f.queue().inflight(), 0u);
  }

  // Power back on: synced data on both keyspaces survived.
  f.PowerCycle();
  client::Client db = MakeClient(&f);
  testutil::RunSim(
      f.sim(), [](Device* dev, client::Client* c) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        for (const char* name : {"a", "b"}) {
          auto ks = co_await c->OpenKeyspace(name);
          KVCSD_CO_ASSERT_OK(ks);
          auto stat = co_await ks->GetStat();
          KVCSD_CO_ASSERT_OK(stat);
          KVCSD_CO_ASSERT(stat->num_kvs >= kSynced);
          if (stat->state != "COMPACTED") {
            KVCSD_CO_ASSERT_OK(co_await ks->Compact());
            KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
          }
          for (std::uint64_t i = 0; i < kSynced; i += 7) {
            auto got = co_await ks->Get(MakeFixedKey(i));
            KVCSD_CO_ASSERT_OK(got);
            KVCSD_CO_ASSERT(*got == DetValue(i));
          }
        }
      }(&f.dev(), &db));
}

}  // namespace
}  // namespace kvcsd::device
