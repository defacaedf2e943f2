#include "vpic/vpic.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/keys.h"

namespace kvcsd::vpic {

namespace {

void AppendF32(std::string* out, float f) {
  char buf[4];
  std::memcpy(buf, &f, 4);
  out->append(buf, 4);
}

float ReadF32(const char* p) {
  float f;
  std::memcpy(&f, p, 4);
  return f;
}

}  // namespace

std::string Particle::Key() const { return MakeFixedKey(id, kIdBytes); }

std::string Particle::Payload() const {
  std::string out;
  out.reserve(kPayloadBytes);
  AppendF32(&out, dx);
  AppendF32(&out, dy);
  AppendF32(&out, dz);
  AppendF32(&out, ux);
  AppendF32(&out, uy);
  AppendF32(&out, uz);
  AppendF32(&out, weight);
  AppendF32(&out, energy);
  return out;
}

bool ParsePayload(const std::string& payload, Particle* out) {
  if (payload.size() < kPayloadBytes) return false;
  const char* p = payload.data();
  out->dx = ReadF32(p + 0);
  out->dy = ReadF32(p + 4);
  out->dz = ReadF32(p + 8);
  out->ux = ReadF32(p + 12);
  out->uy = ReadF32(p + 16);
  out->uz = ReadF32(p + 20);
  out->weight = ReadF32(p + 24);
  out->energy = ReadF32(p + kEnergyOffset);
  return true;
}

Dump::Dump(const GeneratorConfig& config) : config_(config) {
  Rng rng(config.seed);
  particles_.resize(config.num_particles);
  for (std::uint64_t i = 0; i < config.num_particles; ++i) {
    Particle& p = particles_[i];
    p.id = i;
    p.dx = static_cast<float>(rng.NextDouble());
    p.dy = static_cast<float>(rng.NextDouble());
    p.dz = static_cast<float>(rng.NextDouble());
    // Thermal momentum components.
    p.ux = static_cast<float>(rng.Normal(0.0, 1.0));
    p.uy = static_cast<float>(rng.Normal(0.0, 1.0));
    p.uz = static_cast<float>(rng.Normal(0.0, 1.0));
    p.weight = 1.0f;
    // Gamma(3, T): sum of three exponentials — long right tail, so high
    // energy thresholds select tiny fractions (cf. tracking "a few high
    // energy particles", paper §II).
    const double e = rng.Exponential(1.0) + rng.Exponential(1.0) +
                     rng.Exponential(1.0);
    p.energy = static_cast<float>(e * config.temperature);
  }
  sorted_energies_.reserve(particles_.size());
  for (const Particle& p : particles_) sorted_energies_.push_back(p.energy);
  std::sort(sorted_energies_.begin(), sorted_energies_.end());
}

std::vector<const Particle*> Dump::FileParticles(std::uint32_t index) const {
  std::vector<const Particle*> out;
  for (std::uint64_t i = index; i < particles_.size();
       i += config_.num_files) {
    out.push_back(&particles_[i]);
  }
  return out;
}

float Dump::EnergyThresholdForSelectivity(double fraction) const {
  if (sorted_energies_.empty()) return 0.0f;
  const auto hits = static_cast<std::uint64_t>(
      fraction * static_cast<double>(sorted_energies_.size()));
  if (hits == 0) return sorted_energies_.back() + 1.0f;
  if (hits >= sorted_energies_.size()) return 0.0f;
  return sorted_energies_[sorted_energies_.size() - hits];
}

std::uint64_t Dump::CountAbove(float threshold) const {
  auto it = std::lower_bound(sorted_energies_.begin(),
                             sorted_energies_.end(), threshold);
  return static_cast<std::uint64_t>(sorted_energies_.end() - it);
}

Dump::HostAggregate Dump::FileEnergyAggregate(std::uint32_t index,
                                              float threshold) const {
  HostAggregate out;
  // FileParticles yields ascending ids, and the 16 B key is big-endian id,
  // so this iteration order IS the device's primary-scan order.
  for (const Particle* p : FileParticles(index)) {
    if (p->energy < threshold) continue;
    const double v = static_cast<double>(p->energy);
    ++out.rows;
    if (!out.valid) {
      out.min = out.max = v;
      out.valid = true;
    } else {
      out.min = std::min(out.min, v);
      out.max = std::max(out.max, v);
    }
    out.sum += v;
  }
  return out;
}

}  // namespace kvcsd::vpic
