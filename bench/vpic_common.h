// Shared VPIC macro-benchmark plumbing for Fig. 11 (write phase) and
// Fig. 12 (query phase).
//
// KV-CSD side: 16 loader threads, one VPIC file -> one keyspace each;
// particle ID (16 B) is the primary key, the 32 B payload the value; the
// device builds the primary index via deferred compaction and a secondary
// index on the kinetic energy (f32 at payload offset 28).
//
// RocksDB side (paper §VI-C): the loader inserts auxiliary key-value pairs
// alongside the primary ones — a 1 B prefix distinguishes them. Auxiliary
// keys embed the order-encoded energy (plus the particle id to keep keys
// unique); querying is a two-step process: range-scan the auxiliary keys,
// then GET each returned primary key.
#pragma once

#include <string>
#include <vector>

#include "common/keys.h"
#include "harness/testbed.h"
#include "nvme/skey.h"
#include "sim/sync.h"
#include "vpic/vpic.h"

namespace kvcsd::bench {

using harness::CsdTestbed;
using harness::LsmTestbed;

constexpr char kPrimaryPrefix = '\x00';
constexpr char kAuxPrefix = '\x01';

inline std::string PrimaryKey(const vpic::Particle& p) {
  return kPrimaryPrefix + p.Key();
}

inline std::string AuxKey(const vpic::Particle& p) {
  std::string key(1, kAuxPrefix);
  key += nvme::EncodeSecondaryF32(p.energy);
  AppendBigEndian64(&key, p.id);  // uniquify identical energies
  return key;
}

inline std::string AuxRangeStart(float threshold) {
  std::string key(1, kAuxPrefix);
  key += nvme::EncodeSecondaryF32(threshold);
  return key;
}

inline std::string AuxRangeEnd() {
  // One past every possible aux key.
  return std::string(1, kAuxPrefix) + std::string(13, '\xff');
}

struct CsdVpicTimes {
  Tick insert = 0;      // what the application experiences
  Tick compaction = 0;  // asynchronous, device-side
  Tick index = 0;       // secondary-index construction, device-side
};

// Loads the dump into `bed` (one keyspace per file), compacts, and builds
// the energy index. Returns phase times and fills `handles`, or the first
// failed status of any keyspace's create, load, compaction or index build.
Result<CsdVpicTimes> LoadVpicIntoCsd(
    CsdTestbed& bed, const vpic::Dump& dump,
    std::vector<client::KeyspaceHandle>* handles);

struct LsmVpicTimes {
  Tick insert = 0;           // puts acknowledged (stalls included)
  Tick compaction_wait = 0;  // extra wait for background compaction
};

// Loads the dump into per-thread RocksLite instances with auxiliary energy
// keys; automatic compaction runs during the load (paper's setup).
LsmVpicTimes LoadVpicIntoLsm(LsmTestbed& bed, const vpic::Dump& dump,
                             std::vector<std::unique_ptr<lsm::Db>>* dbs);

}  // namespace kvcsd::bench
