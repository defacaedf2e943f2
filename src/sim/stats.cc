#include "sim/stats.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace kvcsd::sim {

namespace {

constexpr int kSubBucketBits = 4;
constexpr int kSubBuckets = 1 << kSubBucketBits;

// Log-linear bucketing: values below kSubBuckets are exact; a value in
// octave [2^o, 2^(o+1)) (o >= kSubBucketBits) lands in one of kSubBuckets
// equal-width sub-buckets keyed by its bits just below the leading one.
int BucketFor(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSubBuckets)) return static_cast<int>(v);
  const int octave = static_cast<int>(std::bit_width(v)) - 1;
  const int sub = static_cast<int>((v >> (octave - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return kSubBuckets + (octave - kSubBucketBits) * kSubBuckets + sub;
}

// Inclusive-exclusive [lo, hi) value range of bucket `b`, as doubles so
// the top octave cannot overflow uint64.
void BucketBounds(int b, double* lo, double* hi) {
  if (b < kSubBuckets) {
    *lo = static_cast<double>(b);
    *hi = static_cast<double>(b + 1);
    return;
  }
  const int rel = b - kSubBuckets;
  const int shift = rel / kSubBuckets;  // octave - kSubBucketBits
  const int sub = rel % kSubBuckets;
  const double width = std::pow(2.0, shift);
  *lo = static_cast<double>(kSubBuckets + sub) * width;
  *hi = *lo + width;
}

// Relaxed CAS min/max: exactness matters only once writers join, and the
// loop retries until this thread's value is no longer an improvement.
void AtomicMin(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(std::uint64_t v) {
  buckets_[static_cast<std::size_t>(BucketFor(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

double Histogram::Percentile(double p) const {
  // Snapshot the buckets and derive the total from the snapshot, so the
  // math stays internally consistent even if writers race the read.
  std::array<std::uint64_t, kBuckets> snap;
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    snap[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    total += snap[static_cast<std::size_t>(b)];
  }
  if (total == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = snap[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      double lo = 0.0;
      double hi = 0.0;
      BucketBounds(b, &lo, &hi);
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min()),
                        static_cast<double>(max()));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max());
}

std::optional<HistogramSummary::Tail> HistogramSummary::WellSampledTail()
    const {
  const struct {
    Tail tail;
    double beyond;  // share of samples above the percentile
  } tails[] = {{{"p999", p999}, 0.001},
               {{"p99", p99}, 0.01},
               {{"p95", p95}, 0.05}};
  for (const auto& t : tails) {
    if (static_cast<double>(count) * t.beyond >= 10.0) return t.tail;
  }
  return std::nullopt;
}

HistogramSummary Histogram::Summary() const {
  HistogramSummary s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.mean = mean();
  s.p50 = Percentile(50);
  s.p95 = Percentile(95);
  s.p99 = Percentile(99);
  s.p999 = Percentile(99.9);
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Stats::Reset() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
}

std::string Stats::ToString(std::string_view prefix) const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    std::snprintf(line, sizeof(line), "%-48s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    const HistogramSummary s = h.Summary();
    std::snprintf(line, sizeof(line),
                  "%-48s : n=%llu mean=%.1f p50=%.0f p99=%.0f max=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.mean, s.p50, s.p99,
                  static_cast<unsigned long long>(s.max));
    out += line;
  }
  return out;
}

}  // namespace kvcsd::sim
