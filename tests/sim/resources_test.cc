#include "sim/resources.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/sync.h"

namespace kvcsd::sim {
namespace {

// One class's entry of a per-activity busy array.
Tick Busy(const std::array<Tick, kActivityCount>& busy, Activity act) {
  return busy[static_cast<std::size_t>(act)];
}

TEST(BandwidthResourceTest, SingleTransferTime) {
  Simulation sim;
  // 1 GB/s, 2us latency; 1 MiB transfer -> 1048576ns service + 2000ns.
  BandwidthResource pipe(&sim, "pipe", 1e9, Microseconds(2));
  Tick done = 0;
  sim.Spawn([](Simulation* s, BandwidthResource* p, Tick* out) -> Task<void> {
    co_await p->Transfer(MiB(1));
    *out = s->Now();
  }(&sim, &pipe, &done));
  sim.Run();
  EXPECT_EQ(done, Microseconds(2) + 1048576u);
  EXPECT_EQ(pipe.total_bytes(), MiB(1));
  EXPECT_EQ(pipe.busy_time(), 1048576u);  // the service time alone
}

TEST(BandwidthResourceTest, ConcurrentTransfersSerialize) {
  Simulation sim;
  BandwidthResource pipe(&sim, "pipe", 1e9, 0);
  std::vector<Tick> done_times;
  auto xfer = [](Simulation* s, BandwidthResource* p,
                 std::vector<Tick>* log) -> Task<void> {
    co_await p->Transfer(1000);  // 1000 ns service at 1 GB/s
    log->push_back(s->Now());
  };
  for (int i = 0; i < 4; ++i) sim.Spawn(xfer(&sim, &pipe, &done_times));
  sim.Run();
  EXPECT_EQ(done_times, (std::vector<Tick>{1000, 2000, 3000, 4000}));
  EXPECT_EQ(pipe.busy_time(), 4000u);
}

TEST(BandwidthResourceTest, LatencyPipelines) {
  // With a large per-op latency, back-to-back small transfers should pay
  // the latency concurrently: completion gap equals the service time.
  Simulation sim;
  BandwidthResource pipe(&sim, "pipe", 1e9, Microseconds(100));
  std::vector<Tick> done_times;
  auto xfer = [](Simulation* s, BandwidthResource* p,
                 std::vector<Tick>* log) -> Task<void> {
    co_await p->Transfer(1000);
    log->push_back(s->Now());
  };
  for (int i = 0; i < 3; ++i) sim.Spawn(xfer(&sim, &pipe, &done_times));
  sim.Run();
  ASSERT_EQ(done_times.size(), 3u);
  EXPECT_EQ(done_times[1] - done_times[0], 1000u);
  EXPECT_EQ(done_times[2] - done_times[1], 1000u);
  EXPECT_EQ(done_times[0], Microseconds(100) + 1000u);
}

TEST(BandwidthResourceTest, ZeroByteTransferPaysOnlyLatency) {
  Simulation sim;
  BandwidthResource pipe(&sim, "pipe", 1e9, Microseconds(5));
  Tick done = 0;
  sim.Spawn([](Simulation* s, BandwidthResource* p, Tick* out) -> Task<void> {
    co_await p->Transfer(0);
    *out = s->Now();
  }(&sim, &pipe, &done));
  sim.Run();
  EXPECT_EQ(done, Microseconds(5));
}

TEST(CpuPoolTest, ParallelSpeedup) {
  // 8 jobs of 100ns: on 1 core -> 800ns; on 4 cores -> 200ns.
  for (auto [cores, expected] :
       std::vector<std::pair<std::uint32_t, Tick>>{{1, 800}, {4, 200},
                                                   {8, 100}, {16, 100}}) {
    Simulation sim;
    CpuPool pool(&sim, "cpu", cores);
    auto job = [](CpuPool* p) -> Task<void> { co_await p->Compute(100); };
    for (int i = 0; i < 8; ++i) sim.Spawn(job(&pool));
    sim.Run();
    EXPECT_EQ(sim.Now(), expected) << "cores=" << cores;
  }
}

TEST(CpuPoolTest, BusyTimeAccounting) {
  Simulation sim;
  CpuPool pool(&sim, "cpu", 2);
  auto job = [](CpuPool* p, Tick cost) -> Task<void> {
    co_await p->Compute(cost);
  };
  sim.Spawn(job(&pool, 100));
  sim.Spawn(job(&pool, 300));
  sim.Run();
  EXPECT_EQ(pool.busy_time(), 400u);
  EXPECT_EQ(sim.Now(), 300u);
  EXPECT_EQ(Busy(pool.meter().TotalBusy(), Activity::kOther), 400u);
}

TEST(CpuPoolTest, ComputeBytesUsesRate) {
  Simulation sim;
  CpuPool pool(&sim, "cpu", 1);
  sim.Spawn([](CpuPool* p) -> Task<void> {
    co_await p->ComputeBytes(1000, 1e9);  // 1000 bytes at 1 GB/s = 1000ns
  }(&pool));
  sim.Run();
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(CpuPoolTest, ForegroundBlockedByBackgroundSharingPool) {
  // The write-stall mechanism in miniature: a background task hogging the
  // only core delays a foreground task; with a second core it does not.
  for (auto [cores, expected_fg] :
       std::vector<std::pair<std::uint32_t, Tick>>{{1, 1100}, {2, 150}}) {
    Simulation sim;
    CpuPool pool(&sim, "cpu", cores);
    Tick fg_done = 0;
    sim.Spawn([](CpuPool* p) -> Task<void> {
      co_await p->Compute(1000);  // background hog
    }(&pool));
    sim.Spawn([](Simulation* s, CpuPool* p, Tick* out) -> Task<void> {
      co_await s->Delay(50);  // arrives while background is running
      co_await p->Compute(100);
      *out = s->Now();
    }(&sim, &pool, &fg_done));
    sim.Run();
    EXPECT_EQ(fg_done, expected_fg) << "cores=" << cores;
  }
}

TEST(CpuPoolTest, SlicedChargeTotalsTheOneShotCharge) {
  // Rates whose per-slice ticks do not divide evenly, so every slice's
  // rounding shows if the slices stop summing to the whole.
  for (const double rate : {150e6, 1.7e9, 3e9}) {
    for (const std::uint64_t bytes : {std::uint64_t{1}, std::uint64_t{4095},
                                      KiB(4) + 1, MiB(3) + 17}) {
      Simulation sim;
      CpuPool pool(&sim, "cpu", 1);
      // One stream charged in two sliced parts.
      sim.Spawn([](CpuPool* p, std::uint64_t n, double r) -> Task<void> {
        co_await p->ComputeSliced(n / 3, r, Activity::kCompact);
        co_await p->ComputeSliced(n - n / 3, r, Activity::kCompact, n / 3);
      }(&pool, bytes, rate));
      sim.Run();
      EXPECT_EQ(pool.busy_time(), TransferTicks(bytes, rate))
          << "rate=" << rate << " bytes=" << bytes;
      EXPECT_EQ(sim.Now(), TransferTicks(bytes, rate));
      EXPECT_EQ(Busy(pool.meter().TotalBusy(), Activity::kCompact),
                TransferTicks(bytes, rate));
    }
  }
}

TEST(CpuPoolTest, ForegroundWaitsOneSliceBehindSlicedCharge) {
  // A 64 MiB background charge at 150 MB/s holds a 1-core pool for ~447 ms
  // in one shot. Sliced, a 1 us foreground compute issued in the middle
  // of it finishes within one slice of the charge plus its own cost.
  constexpr double kRate = 150e6;
  constexpr Tick kArrive = Milliseconds(100);
  constexpr Tick kCost = Microseconds(1);
  for (const bool sliced : {false, true}) {
    Simulation sim;
    CpuPool pool(&sim, "cpu", 1);
    Tick fg_done = 0;
    sim.Spawn([](CpuPool* p, bool slice) -> Task<void> {
      if (slice) {
        co_await p->ComputeSliced(MiB(64), kRate, Activity::kCompact);
      } else {
        co_await p->ComputeBytes(MiB(64), kRate, Activity::kCompact);
      }
    }(&pool, sliced));
    sim.Spawn([](Simulation* s, CpuPool* p, Tick* out) -> Task<void> {
      co_await s->Delay(kArrive);
      co_await p->Compute(kCost);
      *out = s->Now();
    }(&sim, &pool, &fg_done));
    sim.Run();
    EXPECT_EQ(sim.Now(), TransferTicks(MiB(64), kRate) + kCost);
    if (sliced) {
      EXPECT_LE(fg_done - kArrive,
                TransferTicks(CpuPool::kSliceBytes, kRate) + 1 + kCost);
    } else {
      EXPECT_EQ(fg_done, TransferTicks(MiB(64), kRate) + kCost);
    }
  }
}

namespace {
// Advances the simulation clock to `when` (events only move time forward).
void AdvanceTo(Simulation* sim, Tick when) {
  sim->Spawn([](Simulation* s, Tick target) -> Task<void> {
    co_await s->Delay(target - s->Now());
  }(sim, when));
  sim->Run();
  ASSERT_EQ(sim->Now(), when);
}
}  // namespace

TEST(ResourceMeterTest, AttributesBusyTimePerClassAcrossWindows) {
  Simulation sim;
  ResourceMeter m(&sim, "soc", 2.0, /*window=*/100);
  m.Add(Activity::kHostWrite, 0, 60);
  m.Add(Activity::kCompact, 30, 50);
  m.Add(Activity::kHostWrite, 60, 70);

  // From the next window, window 0 is the "last completed" one.
  AdvanceTo(&sim, 150);
  EXPECT_EQ(Busy(m.WindowBusy(), Activity::kHostWrite), 70u);
  EXPECT_EQ(Busy(m.WindowBusy(), Activity::kCompact), 20u);
  EXPECT_EQ(Busy(m.WindowBusy(), Activity::kPushdown), 0u);

  // Gauges are permille-of-window per class plus capacity x 1000.
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  m.AppendGauges(&gauges);
  std::uint64_t host_write = 0, capacity = 0;
  for (const auto& [name, value] : gauges) {
    if (name == "util.soc.host_write") host_write = value;
    if (name == "util.soc.capacity") capacity = value;
  }
  EXPECT_EQ(host_write, 700u);
  EXPECT_EQ(capacity, 2000u);

  // Idle for a full window: the stale window must not be reported as
  // recent load.
  AdvanceTo(&sim, 400);
  EXPECT_EQ(Busy(m.WindowBusy(), Activity::kHostWrite), 0u);
  EXPECT_EQ(Busy(m.WindowBusy(), Activity::kCompact), 0u);
  // The since-construction totals keep it.
  EXPECT_EQ(Busy(m.TotalBusy(), Activity::kHostWrite), 70u);
}

TEST(ResourceMeterTest, BooksEachWindowItsShareOfALongInterval) {
  Simulation sim;
  ResourceMeter m(&sim, "soc", 1.0, /*window=*/100);
  // Booked at its start: 50 ticks in window 0, all of windows 1 and 2, 50
  // in window 3.
  m.Add(Activity::kCompact, 50, 350);
  const Tick expected[] = {50, 100, 100, 50, 0};
  for (std::size_t w = 0; w < std::size(expected); ++w) {
    AdvanceTo(&sim, (w + 1) * 100 + 10);
    EXPECT_EQ(Busy(m.WindowBusy(), Activity::kCompact), expected[w])
        << "window " << w;
    if (w == 1) {
      // Booked after the fact: the part in window 1, the last completed
      // one, still shows; the part in window 0 only counts in the total.
      m.Add(Activity::kHostRead, 20, 120);
      EXPECT_EQ(Busy(m.WindowBusy(), Activity::kHostRead), 20u);
    }
  }
  EXPECT_EQ(Busy(m.TotalBusy(), Activity::kCompact), 300u);
  EXPECT_EQ(Busy(m.TotalBusy(), Activity::kHostRead), 100u);
}

TEST(CpuPoolTest, LongComputeFillsEveryWindowItSpans) {
  Simulation sim;
  CpuPool pool(&sim, "soc", 1);
  const Tick window = ResourceMeter::kDefaultWindow;
  sim.Spawn([](CpuPool* p, Tick cost) -> Task<void> {
    co_await p->Compute(cost, Activity::kCompact);
  }(&pool, 10 * window));
  // Sampled mid-charge, each completed window reads the one core busy.
  for (Tick w = 1; w <= 10; ++w) {
    sim.RunUntil(w * window + window / 2);
    EXPECT_EQ(Busy(pool.meter().WindowBusy(), Activity::kCompact), window)
        << "window " << w - 1;
  }
  sim.Run();
}

TEST(CpuPoolTest, ComputeMetersActivityClass) {
  Simulation sim;
  CpuPool pool(&sim, "soc", 2);
  sim.Spawn([](CpuPool* p) -> Task<void> {
    co_await p->Compute(40, Activity::kCompact);
    co_await p->Compute(30, Activity::kHostRead);
  }(&pool));
  sim.Run();
  EXPECT_EQ(sim.Now(), 70u);
  AdvanceTo(&sim, ResourceMeter::kDefaultWindow);
  EXPECT_EQ(Busy(pool.meter().WindowBusy(), Activity::kCompact), 40u);
  EXPECT_EQ(Busy(pool.meter().WindowBusy(), Activity::kHostRead), 30u);
  EXPECT_EQ(Busy(pool.meter().WindowBusy(), Activity::kHostWrite), 0u);
}

}  // namespace
}  // namespace kvcsd::sim
