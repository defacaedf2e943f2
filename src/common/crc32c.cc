#include "common/crc32c.h"

#include <array>

namespace kvcsd::crc32c {

namespace {

// Table-driven CRC32C; the tables are generated at static-init time from
// the Castagnoli polynomial (reflected form 0x82f63b78). Table k maps a
// byte to its CRC contribution k bytes further down the stream, so the
// slice-by-8 loop folds eight bytes per step with eight independent
// lookups instead of a serial chain of eight.
constexpr std::uint32_t kPoly = 0x82f63b78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

const Tables kTables = MakeTables();

// Little-endian 32-bit load from any alignment (one mov on x86).
inline std::uint32_t Load32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Extend(std::uint32_t init_crc, const char* data,
                     std::size_t n) {
  const auto& t = kTables;
  std::uint32_t crc = ~init_crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ Load32(p);
    const std::uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

std::uint32_t ExtendBytewise(std::uint32_t init_crc, const char* data,
                             std::size_t n) {
  std::uint32_t crc = ~init_crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace kvcsd::crc32c
