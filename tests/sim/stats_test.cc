#include "sim/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kvcsd::sim {
namespace {

TEST(CounterTest, AccumulatesAndResets) {
  Counter c;
  c.Add(10);
  c.Increment();
  EXPECT_EQ(c.value(), 11u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 4u, 5u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(HistogramTest, PercentilesBracketed) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<std::uint64_t>(i));
  EXPECT_GE(h.Percentile(50), 256.0);
  EXPECT_LE(h.Percentile(50), 1000.0);
  EXPECT_GE(h.Percentile(99), h.Percentile(50));
  EXPECT_LE(h.Percentile(100), 1000.0);
}

// Regression pin for the log-linear buckets (16 sub-buckets per octave,
// ~6.25% relative resolution): a uniform 1..100000 distribution has known
// exact percentiles, and every estimate must land within one sub-bucket's
// relative error of the truth. The old pure-log2 buckets were off by up
// to ~40% here — if this starts failing, the bucketing regressed.
TEST(HistogramTest, LogLinearPercentilesOnKnownDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_NEAR(h.Percentile(50), 50000.0, 0.07 * 50000.0);
  EXPECT_NEAR(h.Percentile(99), 99000.0, 0.07 * 99000.0);
  EXPECT_NEAR(h.Percentile(99.9), 99900.0, 0.07 * 99900.0);
}

TEST(HistogramTest, SmallValuesHaveExactBuckets) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.Record(v);
  // Values below 16 each get their own bucket, so the median of 0..15
  // cannot smear beyond its neighbors.
  EXPECT_NEAR(h.Percentile(50), 8.0, 1.5);
  EXPECT_NEAR(h.Percentile(100), 15.0, 1.0);
}

TEST(HistogramTest, SummaryMatchesAccessors) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.sum, h.sum());
  EXPECT_EQ(s.min, h.min());
  EXPECT_EQ(s.max, h.max());
  EXPECT_DOUBLE_EQ(s.mean, h.mean());
  EXPECT_DOUBLE_EQ(s.p50, h.Percentile(50));
  EXPECT_DOUBLE_EQ(s.p95, h.Percentile(95));
  EXPECT_DOUBLE_EQ(s.p99, h.Percentile(99));
  EXPECT_DOUBLE_EQ(s.p999, h.Percentile(99.9));
}

TEST(HistogramTest, WellSampledTailNeedsTenSamplesBeyondIt) {
  // {samples, expected tail}: p95 needs 200, p99 1,000, p999 10,000.
  const std::pair<std::uint64_t, const char*> cases[] = {
      {199, nullptr}, {200, "p95"}, {999, "p95"},
      {1000, "p99"}, {9999, "p99"}, {10000, "p999"}};
  for (const auto& [samples, want] : cases) {
    Histogram h;
    for (std::uint64_t v = 1; v <= samples; ++v) h.Record(v);
    const HistogramSummary s = h.Summary();
    const auto tail = s.WellSampledTail();
    if (want == nullptr) {
      EXPECT_FALSE(tail.has_value()) << samples;
      continue;
    }
    ASSERT_TRUE(tail.has_value()) << samples;
    EXPECT_STREQ(tail->name, want) << samples;
    const double value = std::string(want) == "p999" ? s.p999
                         : std::string(want) == "p99" ? s.p99
                                                      : s.p95;
    EXPECT_EQ(tail->value, value) << samples;
  }
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, ZeroAndHugeValues) {
  Histogram h;
  h.Record(0);
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(HistogramTest, PercentileSingleValue) {
  Histogram h;
  h.Record(42);
  // Every percentile of a one-sample histogram lands in its bucket.
  EXPECT_GT(h.Percentile(0), 0.0);
  EXPECT_GE(h.Percentile(50), 32.0);
  EXPECT_LE(h.Percentile(50), 64.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), h.Percentile(99));
}

TEST(HistogramTest, PercentileAllIdenticalValues) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  EXPECT_DOUBLE_EQ(h.Percentile(1), h.Percentile(99));
  EXPECT_GE(h.Percentile(99), 512.0);
  EXPECT_LE(h.Percentile(99), 2048.0);
}

TEST(HistogramTest, PercentileClampsOutOfRangeRequests) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 64; ++v) h.Record(v);
  EXPECT_GE(h.Percentile(200), h.Percentile(100));
  EXPECT_LE(h.Percentile(-5), h.Percentile(1));
}

TEST(HistogramTest, PercentileIsMonotoneInP) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; v += 7) h.Record(v);
  double prev = 0.0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double cur = h.Percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

// The instrumented hot paths (NVMe dispatch, ZNS accounting) hammer the
// same counters and histograms from concurrent std::threads in tests and
// tools; totals must not lose updates.
TEST(StatsTest, ConcurrentRecordingLosesNothing) {
  Stats stats;
  Counter& counter = stats.counter("stress.ops");
  Histogram& hist = stats.histogram("stress.lat_ns");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &hist, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        counter.Add(2);
        hist.Record(i + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(counter.value(), 2 * kThreads * kPerThread);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), kPerThread + kThreads - 1);
  // Sum of t..(kPerThread+t) over all threads.
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 1; i <= kPerThread; ++i) {
      expected_sum += i + static_cast<std::uint64_t>(t);
    }
  }
  EXPECT_EQ(hist.sum(), expected_sum);
}

TEST(StatsTest, RegistryIsStableAndNamed) {
  Stats stats;
  Counter& a = stats.counter("ssd.bytes_written");
  a.Add(4096);
  Counter& again = stats.counter("ssd.bytes_written");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(stats.counter_value("ssd.bytes_written"), 4096u);
  EXPECT_EQ(stats.counter_value("missing"), 0u);
  EXPECT_TRUE(stats.has_counter("ssd.bytes_written"));
  EXPECT_FALSE(stats.has_counter("missing"));
}

TEST(StatsTest, ToStringFiltersByPrefix) {
  Stats stats;
  stats.counter("fs.reads").Add(1);
  stats.counter("ssd.reads").Add(2);
  std::string fs_only = stats.ToString("fs.");
  EXPECT_NE(fs_only.find("fs.reads"), std::string::npos);
  EXPECT_EQ(fs_only.find("ssd.reads"), std::string::npos);
}

TEST(StatsTest, ResetClearsEverything) {
  Stats stats;
  stats.counter("x").Add(5);
  stats.histogram("h").Record(9);
  stats.Reset();
  EXPECT_EQ(stats.counter_value("x"), 0u);
  EXPECT_EQ(stats.histogram("h").count(), 0u);
}

}  // namespace
}  // namespace kvcsd::sim
