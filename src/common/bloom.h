// Bloom filter over user keys, LevelDB-style double hashing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace kvcsd {

class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(int bits_per_key = 10);

  void AddKey(const Slice& key);

  // Serializes the filter: bit array followed by a 1-byte probe count.
  std::string Finish();

 private:
  int bits_per_key_;
  int num_probes_;
  std::vector<std::uint32_t> hashes_;
};

// True if the key may be in the set; false means definitely absent.
bool BloomFilterMayContain(const Slice& filter, const Slice& key);

// Sets the key's probe bits in an already-serialized filter in place
// (incremental re-compaction folds new keys into the compaction-built
// filter without rebuilding it). The filter only ever gains bits, so the
// no-false-negative guarantee holds; the false-positive rate drifts up
// until the next full compaction resizes the filter. No-op on an empty or
// degenerate filter.
void BloomFilterAddKey(std::string* filter, const Slice& key);

// FNV-1a-flavoured hash used by both sides.
std::uint32_t BloomHash(const Slice& key);

}  // namespace kvcsd
