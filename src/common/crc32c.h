// CRC32C (Castagnoli) used to checksum WAL records, SSTable blocks, the
// KV-CSD metadata zone, and PIDX/SIDX blocks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kvcsd::crc32c {

// Returns the crc32c of data[0..n-1], seeded with `init_crc` (pass 0 for a
// fresh computation; pass a previous result to extend it).
// Slice-by-8: eight bytes per step.
std::uint32_t Extend(std::uint32_t init_crc, const char* data, std::size_t n);

// The byte-at-a-time table loop Extend() replaced; same results, kept as
// the reference the slice-by-8 path is tested against.
std::uint32_t ExtendBytewise(std::uint32_t init_crc, const char* data,
                             std::size_t n);

inline std::uint32_t Value(const char* data, std::size_t n) {
  return Extend(0, data, n);
}

// Masked crcs are stored on disk so that computing the crc of a string that
// embeds a crc does not yield a trivially correlated value (LevelDB trick).
inline std::uint32_t Mask(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline std::uint32_t Unmask(std::uint32_t masked) {
  std::uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace kvcsd::crc32c
