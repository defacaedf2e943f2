// Simulation-wide statistics registry: named monotonic counters and
// log-linear-bucketed histograms. These back the paper's "I/O statistics" plots
// (Fig. 7b, Fig. 10b): every storage, filesystem, and interconnect layer
// counts the bytes and operations that pass through it.
//
// Thread safety: recording (Counter::Add/Increment, Histogram::Record) is
// lock-free and safe from any number of OS threads — simulation code is
// single-threaded coroutines today, but harness and test code may hammer
// the same objects from real threads (tests/sim/stats_test.cc stresses
// exactly that). Registry mutation (Stats::counter/histogram inserting a
// new name) and Reset() are NOT thread-safe: create the named series and
// quiesce writers before resetting, then fan out. Readers (value, count,
// Percentile, ToString) take relaxed snapshots and may observe a
// mid-update state under concurrency; totals are exact once writers join.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace kvcsd::sim {

class Counter {
 public:
  void Add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// One-line digest of a histogram; produced by Histogram::Summary() and
// shared by every reporter (Stats::ToString, harness::JsonReporter) so the
// percentile set and its derivation live in exactly one place.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  // One percentile of the summary: its name ("p999") and its value.
  struct Tail {
    const char* name;
    double value;
  };
  // The highest of p999/p99/p95 with at least ten samples beyond it; a
  // percentile with fewer swings on single samples. Empty when not even
  // p95 has ten.
  std::optional<Tail> WellSampledTail() const;
};

// Histogram with log-linear buckets: values < 16 are exact, larger values
// land in one of 16 linear sub-buckets per power-of-two octave (~6.25%
// relative resolution), tight enough that p99 at sub-microsecond scale is
// meaningful. Tracks count/sum/min/max and approximate percentiles.
class Histogram {
 public:
  void Record(std::uint64_t v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  // Approximate p-th percentile (0 < p <= 100) by linear interpolation
  // within the containing log-linear bucket, clamped to [min, max].
  double Percentile(double p) const;
  // Consistent one-shot digest (count/sum/min/max/mean/p50/p95/p99/p999).
  HistogramSummary Summary() const;
  void Reset();

 private:
  // 16 exact buckets for v < 16, then 16 sub-buckets for each octave
  // [2^o, 2^(o+1)) with o in [4, 63].
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  static constexpr int kBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

// Name-keyed registry. References returned by counter()/histogram() stay
// valid for the registry's lifetime (std::map nodes are stable).
class Stats {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  // Read-only lookup; returns 0 / empty histogram stats for unknown names.
  std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }
  bool has_counter(const std::string& name) const {
    return counters_.contains(name);
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void Reset();

  // Multi-line "name = value" dump, optionally filtered by prefix.
  std::string ToString(std::string_view prefix = {}) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

// Prefix-scoped view over a shared Stats registry: every name passed
// through the view is recorded under `prefix + name` in the base
// registry. With an empty prefix the view is a transparent pass-through,
// so single-instance components keep their historical metric names; a
// fleet of instances sharing one simulation gives each its own prefix
// ("shard0.", "shard1.", ...) and their series stay separable while
// living in the one registry every reporter already reads.
class StatsView {
 public:
  StatsView(Stats* base, std::string prefix)
      : base_(base), prefix_(std::move(prefix)) {}

  Counter& counter(const std::string& name) {
    return base_->counter(prefix_.empty() ? name : prefix_ + name);
  }
  Histogram& histogram(const std::string& name) {
    return base_->histogram(prefix_.empty() ? name : prefix_ + name);
  }
  std::uint64_t counter_value(const std::string& name) const {
    return base_->counter_value(prefix_.empty() ? name : prefix_ + name);
  }
  bool has_counter(const std::string& name) const {
    return base_->has_counter(prefix_.empty() ? name : prefix_ + name);
  }

 private:
  Stats* base_;
  std::string prefix_;
};

}  // namespace kvcsd::sim
