#include "vpic/vpic.h"

#include <gtest/gtest.h>

#include <set>

#include "common/keys.h"

namespace kvcsd::vpic {
namespace {

GeneratorConfig SmallDump() {
  GeneratorConfig c;
  c.num_particles = 50000;
  c.num_files = 16;
  c.seed = 7;
  return c;
}

TEST(VpicTest, ParticleRecordIs48Bytes) {
  Particle p;
  p.id = 123;
  p.energy = 1.5f;
  EXPECT_EQ(p.Key().size(), kIdBytes);
  EXPECT_EQ(p.Payload().size(), kPayloadBytes);
  EXPECT_EQ(kParticleBytes, 48u);
}

TEST(VpicTest, PayloadRoundTrip) {
  Particle p;
  p.id = 99;
  p.dx = 0.1f;
  p.uy = -2.5f;
  p.weight = 1.0f;
  p.energy = 3.25f;
  Particle back;
  ASSERT_TRUE(ParsePayload(p.Payload(), &back));
  EXPECT_EQ(back.dx, p.dx);
  EXPECT_EQ(back.uy, p.uy);
  EXPECT_EQ(back.energy, p.energy);
}

TEST(VpicTest, EnergyLivesAtDocumentedOffset) {
  Particle p;
  p.energy = 7.75f;
  const std::string payload = p.Payload();
  float raw;
  std::memcpy(&raw, payload.data() + kEnergyOffset, 4);
  EXPECT_EQ(raw, 7.75f);
}

TEST(VpicTest, DumpIsDeterministic) {
  Dump a(SmallDump());
  Dump b(SmallDump());
  ASSERT_EQ(a.num_particles(), b.num_particles());
  for (std::size_t i : {std::size_t{0}, std::size_t{777}}) {
    EXPECT_EQ(a.all()[i].energy, b.all()[i].energy);
    EXPECT_EQ(a.all()[i].ux, b.all()[i].ux);
  }
}

TEST(VpicTest, FilesPartitionTheDump) {
  Dump dump(SmallDump());
  std::set<std::uint64_t> seen;
  std::uint64_t total = 0;
  for (std::uint32_t f = 0; f < dump.num_files(); ++f) {
    for (const Particle* p : dump.FileParticles(f)) {
      EXPECT_TRUE(seen.insert(p->id).second) << "duplicate id " << p->id;
      ++total;
    }
  }
  EXPECT_EQ(total, dump.num_particles());
}

TEST(VpicTest, EnergyHasLongTail) {
  Dump dump(SmallDump());
  // The 0.1% threshold should be several times the median: a long tail.
  const float p50 = dump.EnergyThresholdForSelectivity(0.5);
  const float p001 = dump.EnergyThresholdForSelectivity(0.001);
  EXPECT_GT(p001, 2.5f * p50);
}

TEST(VpicTest, SelectivityThresholdsAreAccurate) {
  Dump dump(SmallDump());
  for (double fraction : {0.001, 0.01, 0.05, 0.2}) {
    const float threshold = dump.EnergyThresholdForSelectivity(fraction);
    const auto hits = dump.CountAbove(threshold);
    const double actual =
        static_cast<double>(hits) /
        static_cast<double>(dump.num_particles());
    EXPECT_NEAR(actual, fraction, fraction * 0.05 + 1e-4)
        << "fraction=" << fraction;
  }
}

TEST(VpicTest, ThresholdEdgeCases) {
  Dump dump(SmallDump());
  EXPECT_EQ(dump.CountAbove(dump.EnergyThresholdForSelectivity(0.0)), 0u);
  EXPECT_EQ(dump.CountAbove(dump.EnergyThresholdForSelectivity(1.0)),
            dump.num_particles());
}

TEST(VpicTest, KeysSortById) {
  Particle a, b;
  a.id = 5;
  b.id = 6;
  EXPECT_LT(a.Key(), b.Key());
  EXPECT_EQ(FixedKeyId(a.Key()), 5u);
}

}  // namespace
}  // namespace kvcsd::vpic
