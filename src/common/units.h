// Size and time unit helpers. Simulated time is always nanoseconds held in
// a uint64_t "Tick".
#pragma once

#include <cstdint>

namespace kvcsd {

using Tick = std::uint64_t;  // simulated nanoseconds

constexpr std::uint64_t KiB(std::uint64_t n) { return n << 10; }
constexpr std::uint64_t MiB(std::uint64_t n) { return n << 20; }
constexpr std::uint64_t GiB(std::uint64_t n) { return n << 30; }

constexpr Tick Nanoseconds(std::uint64_t n) { return n; }
constexpr Tick Microseconds(std::uint64_t n) { return n * 1000ull; }
constexpr Tick Milliseconds(std::uint64_t n) { return n * 1000000ull; }
constexpr Tick Seconds(std::uint64_t n) { return n * 1000000000ull; }

constexpr double TicksToSeconds(Tick t) {
  return static_cast<double>(t) / 1e9;
}

// Ticks needed to move `bytes` through a pipe of `bytes_per_sec` capacity,
// rounded up so zero-cost transfers cannot exist.
constexpr Tick TransferTicks(std::uint64_t bytes, double bytes_per_sec) {
  if (bytes == 0) return 0;
  const double ns = static_cast<double>(bytes) * 1e9 / bytes_per_sec;
  const Tick t = static_cast<Tick>(ns);
  return t == 0 ? 1 : t;
}

}  // namespace kvcsd
