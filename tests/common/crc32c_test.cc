#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"

namespace kvcsd {
namespace {

// Known-answer tests from RFC 3720 / the LevelDB test suite.
TEST(Crc32cTest, KnownVectors) {
  char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);

  char ffs[32];
  std::memset(ffs, 0xff, sizeof(ffs));
  EXPECT_EQ(crc32c::Value(ffs, sizeof(ffs)), 0x62a8ab43u);

  char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending, sizeof(ascending)), 0x46dd794eu);
}

TEST(Crc32cTest, ValuesDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("foo", 3));
  EXPECT_NE(crc32c::Value("foo", 3), crc32c::Value("bar", 3));
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  std::string s = "hello world, this is a crc extension test";
  const std::uint32_t whole = crc32c::Value(s.data(), s.size());
  for (std::size_t split = 0; split <= s.size(); ++split) {
    std::uint32_t part = crc32c::Value(s.data(), split);
    part = crc32c::Extend(part, s.data() + split, s.size() - split);
    EXPECT_EQ(part, whole) << "split=" << split;
  }
}

// The slice-by-8 path against the byte-at-a-time table loop, over random
// lengths (short tails and multi-word bodies), start alignments and seeds.
TEST(Crc32cTest, SliceBy8MatchesBytewiseOracle) {
  Rng rng(20231017);
  std::string buf(4096 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t offset = rng.Uniform(16);
    const std::size_t len = trial < 64 ? static_cast<std::size_t>(trial)
                                       : rng.Uniform(4096);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.Next());
    const char* p = buf.data() + offset;
    ASSERT_EQ(crc32c::Extend(seed, p, len),
              crc32c::ExtendBytewise(seed, p, len))
        << "offset=" << offset << " len=" << len;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  const std::uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

}  // namespace
}  // namespace kvcsd
