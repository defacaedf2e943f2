// Synthetic VPIC particle data (paper §VI-C).
//
// The paper's macro benchmark uses a real VPIC dump: 256 M particles × 48 B
// (16 B particle ID + 32 B payload of 8 numeric attributes, one of which —
// the kinetic energy — drives secondary-index queries). We cannot ship that
// dump, so this module generates a statistically similar synthetic one:
// deterministic IDs, physically-flavoured attributes, and a long-tailed
// kinetic energy (Maxwell–Jüttner-like via a Gamma(3) shape) so that
// "energy > T" thresholds sweep selectivities from 0.1 % to 20 % exactly
// the way the paper's Fig. 12 does.
//
// Layout of the 32 B payload (little-endian f32 × 8):
//   [0]  dx   [4]  dy   [8]  dz     cell-relative position
//   [12] ux   [16] uy   [20] uz     normalized momentum
//   [24] weight
//   [28] energy                     <- secondary index target (offset 28)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace kvcsd::vpic {

constexpr std::uint32_t kIdBytes = 16;
constexpr std::uint32_t kPayloadBytes = 32;
constexpr std::uint32_t kParticleBytes = kIdBytes + kPayloadBytes;
constexpr std::uint32_t kEnergyOffset = 28;  // within the payload

struct Particle {
  std::uint64_t id = 0;
  float dx = 0, dy = 0, dz = 0;
  float ux = 0, uy = 0, uz = 0;
  float weight = 0;
  float energy = 0;

  // 16 B key: big-endian id + zero pad (lexicographic == numeric order).
  std::string Key() const;
  // 32 B payload as stored in the KV value.
  std::string Payload() const;
};

// Parses a payload back into the attribute fields (id must come from the
// key). Returns false on a short buffer.
bool ParsePayload(const std::string& payload, Particle* out);

struct GeneratorConfig {
  std::uint64_t num_particles = 1 << 20;
  std::uint32_t num_files = 16;  // the paper's dump is 16 binary files
  std::uint64_t seed = 2023;
  double temperature = 0.35;  // energy scale of the Gamma(3) distribution
};

// A generated dump: particles pre-split into `num_files` equal slices,
// mirroring the per-file loader threads of the paper's write phase.
class Dump {
 public:
  explicit Dump(const GeneratorConfig& config);

  const GeneratorConfig& config() const { return config_; }
  std::uint64_t num_particles() const { return particles_.size(); }
  std::uint32_t num_files() const { return config_.num_files; }

  // Particles belonging to file `index` (round-robin split).
  std::vector<const Particle*> FileParticles(std::uint32_t index) const;
  const std::vector<Particle>& all() const { return particles_; }

  // Smallest threshold T such that the fraction of particles with
  // energy >= T is (approximately) `fraction`. Used to drive the Fig. 12
  // selectivity sweep.
  float EnergyThresholdForSelectivity(double fraction) const;

  // Exact number of particles with energy >= threshold.
  std::uint64_t CountAbove(float threshold) const;

  // Host-side reference model for device-side aggregation pushdown.
  // Mirrors nvme::AggregateResult field for field so a bench can compare
  // the two representations directly.
  struct HostAggregate {
    std::uint64_t rows = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    bool valid = false;
  };

  // count/min/max/sum of energy over file `index`'s particles with
  // energy >= threshold, folded in ascending-id order — the same order a
  // device-side primary scan visits records in, so `sum` is bit-identical
  // to the device's double accumulation, not merely approximately equal.
  HostAggregate FileEnergyAggregate(std::uint32_t index,
                                    float threshold) const;

 private:
  GeneratorConfig config_;
  std::vector<Particle> particles_;
  std::vector<float> sorted_energies_;
};

}  // namespace kvcsd::vpic
