// Seeded input generators for the benchmark driver. The program under test
// only ever sees the keys and values produced here, and the same seed
// always produces the same inputs.
//
//   KeySpace   dense ids -> 16 B keys. Ids [0, n) are the loaded keys.
//   AbsentId   an id in [n, 2n): mapped through the same bijection it is an
//              absent key spread uniformly between the present ones (a
//              lookup for one must reach the bloom filter, not fall off the
//              end of the key range).
//   ValueFor   (id, version) -> a value of 24..40 B (32 B on average, the
//              paper's micro shape); the length varies with the seed so
//              every simulated-time figure depends on the inputs.
//   Zipfian    YCSB's zipfian rank generator (Gray et al., "Quickly
//              generating billion-record synthetic databases"), theta 0.99.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "common/keys.h"
#include "common/random.h"

namespace perfbench {

// splitmix64 finalizer: a bijection on 64-bit words.
inline std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class KeySpace {
 public:
  KeySpace(std::uint64_t seed, std::uint64_t present)
      : salt_(Mix64(seed ^ 0x6b65797370616365ull)), present_(present) {}

  std::uint64_t present() const { return present_; }

  // 8 B of hashed id (unique: Mix64 is a bijection) + 8 B big-endian id.
  std::string Key(std::uint64_t id) const {
    std::string key;
    key.reserve(16);
    kvcsd::AppendBigEndian64(&key, Mix64(id + salt_));
    kvcsd::AppendBigEndian64(&key, id);
    return key;
  }

  // The id behind a key produced by Key().
  static std::uint64_t IdOf(const std::string& key) {
    return key.size() == 16 ? kvcsd::ReadBigEndian64(key.data() + 8) : ~0ull;
  }

 private:
  std::uint64_t salt_;
  std::uint64_t present_;
};

// A uniformly drawn id of an absent key, for `present` loaded ids.
inline std::uint64_t AbsentId(kvcsd::Rng* rng, std::uint64_t present) {
  return present + rng->Uniform(present);
}

inline std::string ValueFor(std::uint64_t seed, std::uint64_t id,
                            std::uint64_t version) {
  std::uint64_t h = Mix64(seed * 0x9e3779b97f4a7c15ull + Mix64(id) + version);
  std::string value(24 + h % 17, '\0');
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (i % 8 == 0) h = Mix64(h + i);
    value[i] = static_cast<char>('a' + (h >> (8 * (i % 8))) % 26);
  }
  return value;
}

class Zipfian {
 public:
  explicit Zipfian(std::uint64_t n, double theta = 0.99) : n_(n) {
    for (std::uint64_t i = 1; i <= n; ++i) {
      zeta_n_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zeta_n_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  // A rank in [0, n); rank 0 is the hottest.
  std::uint64_t Next(kvcsd::Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zeta_n_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return n_ > 1 ? 1 : 0;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < n_ ? rank : n_ - 1;
  }

 private:
  std::uint64_t n_;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  double half_pow_theta_ = 0.0;
};

}  // namespace perfbench
