// Zoned-namespace SSD model.
//
// Functionally faithful to the ZNS contract the paper relies on (§III,
// §IV): storage is an array of equal-sized zones, each with a write
// pointer; only sequential writes are allowed within a zone; a reset
// rewinds the write pointer and reclaims the space. Zones map statically to
// NAND channels (zone id mod channels), which is what makes the paper's
// zone-cluster striping meaningful. Zone payloads are REAL bytes: reads
// return exactly what was appended, so all index/compaction code above this
// layer is functionally testable.
//
// An optional sim::FaultInjector gates every Append/Read/Reset (injected
// media errors, power-off) and models the torn tail: on a crash the last
// in-flight append is truncated, leaving a partial record for recovery to
// tolerate. After a crash the byte state survives in this object;
// CloneStateFrom() lets a freshly constructed device take it over, which
// is how Device::Restart simulates power-cycling the hardware.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "storage/nand.h"

namespace kvcsd::sim {
class FaultInjector;
}  // namespace kvcsd::sim

namespace kvcsd::storage {

enum class ZoneState : std::uint8_t {
  kEmpty = 0,
  kOpen,      // has data, write pointer not at capacity
  kFull,      // write pointer at capacity or explicitly finished
};

struct ZnsConfig {
  NandConfig nand;
  std::uint64_t zone_size = MiB(64);
  std::uint32_t num_zones = 1024;
  // Stats/meter name prefix: prefixes the "zns" NAND utilization meter
  // and the per-tag "zns.<tag>.*" I/O counters. Empty (the default) keeps
  // the historical names; multi-device simulations give each SSD its own
  // prefix ("shard0.", ...) so the series stay separable.
  std::string stats_prefix;
  // Optional fault injector consulted on every I/O; not owned, must
  // outlive the ZnsSsd. nullptr = no fault injection.
  sim::FaultInjector* faults = nullptr;
};

class ZnsSsd {
 public:
  ZnsSsd(sim::Simulation* sim, const ZnsConfig& config);
  // Deregisters the torn-tail crash hook: the injector may outlive this
  // SSD (fixtures, Device::Restart), and a crash after destruction must
  // not call into a freed object.
  ~ZnsSsd();
  ZnsSsd(const ZnsSsd&) = delete;
  ZnsSsd& operator=(const ZnsSsd&) = delete;

  // Appends `data` at the zone's write pointer. Returns the device byte
  // address of the first appended byte. Fails if the zone is full or the
  // data does not fit in the remaining zone capacity. `act` attributes the
  // NAND channel time per activity class (accounting only).
  sim::Task<Result<std::uint64_t>> Append(
      std::uint32_t zone, std::span<const std::byte> data,
      sim::Activity act = sim::Activity::kOther);

  // Reads `out.size()` bytes starting at device byte address `addr`. The
  // range must lie entirely within the written extent of one zone.
  sim::Task<Status> Read(std::uint64_t addr, std::span<std::byte> out,
                         sim::Activity act = sim::Activity::kOther);

  // Rewinds the zone's write pointer and discards its contents (charges
  // the NAND erase latency).
  sim::Task<Status> Reset(std::uint32_t zone,
                          sim::Activity act = sim::Activity::kOther);

  // Resets every listed zone concurrently and joins them; result i is
  // zones[i]'s status. Every reset is issued, even after one fails. An
  // erase holds its channel only for a zero-byte transfer, so k written
  // zones on idle channels take one erase latency, not k.
  sim::Task<std::vector<Status>> ResetZones(std::vector<std::uint32_t> zones);

  // Transitions an open zone to Full (no more appends until reset).
  Status Finish(std::uint32_t zone);

  // Truncates the most recent append (if its bytes are still the tail of
  // their zone) to keep only `keep_fraction` of it — at least one byte is
  // dropped for fractions < 1. Models the partially-programmed flash page
  // a power cut leaves behind. No NAND latency: this is not an operation
  // the device performs, it is what the medium looks like afterwards.
  void TearLastAppend(double keep_fraction);

  // Durability barrier: declares the most recent append settled, so a
  // later power cut can no longer tear it. The device calls this at every
  // durability commit point (metadata snapshot persisted) BEFORE
  // acknowledging — the power-fail-protected flush a real drive performs.
  // Without the barrier, a crash early in a later operation could tear
  // bytes the host was already told are durable.
  void CommitTail() { has_last_append_ = false; }

  // Adopts the zone byte state (states, write pointers, payloads) of
  // another ZnsSsd with an identical geometry. Used by Device::Restart
  // to hand the surviving medium to a freshly constructed device.
  void CloneStateFrom(const ZnsSsd& other);

  ZoneState zone_state(std::uint32_t zone) const;
  std::uint64_t write_pointer(std::uint32_t zone) const;
  std::uint32_t ChannelOf(std::uint32_t zone) const {
    return zone % config_.nand.channels;
  }

  const ZnsConfig& config() const { return config_; }
  sim::Simulation* sim() const { return sim_; }
  std::uint32_t num_zones() const { return config_.num_zones; }
  std::uint64_t zone_size() const { return config_.zone_size; }
  NandModel& nand() { return nand_; }
  const NandModel& nand() const { return nand_; }
  sim::FaultInjector* fault_injector() const { return config_.faults; }

  std::uint64_t total_bytes_written() const { return bytes_written_; }
  std::uint64_t total_bytes_read() const { return bytes_read_; }
  std::uint64_t total_resets() const { return resets_; }

  // Tags a zone with a role name; subsequent I/O on the zone is accounted
  // to the simulation-wide stats registry under
  //   zns.<tag>.{append_bytes,appends,read_bytes,reads,resets}.
  // The storage layer stays role-agnostic: the ZoneManager applies its
  // cluster-type names ("klog", "pidx", ...) and the metadata path tags
  // the reserved snapshot zones "meta". Re-tagging switches accounting
  // going forward; untagged zones are not accounted. Tag strings are
  // interned — use a small, fixed vocabulary.
  void TagZone(std::uint32_t zone, std::string_view tag);

 private:
  struct Zone {
    ZoneState state = ZoneState::kEmpty;
    std::uint64_t write_pointer = 0;  // bytes written into the zone
    std::vector<std::byte> data;
  };

  Status CheckZoneId(std::uint32_t zone) const;

  // Per-tag counter set, pointing into the stats registry (node-stable).
  struct TagCounters {
    std::string name;
    sim::Counter* append_bytes;
    sim::Counter* appends;
    sim::Counter* read_bytes;
    sim::Counter* reads;
    sim::Counter* resets;
  };
  static constexpr std::uint16_t kNoTag = 0xffff;
  std::uint16_t InternTag(std::string_view tag);

  sim::Simulation* sim_;
  ZnsConfig config_;
  NandModel nand_;
  std::vector<Zone> zones_;
  std::vector<std::uint16_t> zone_tags_;  // index into tag_sets_, kNoTag
  std::vector<TagCounters> tag_sets_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t resets_ = 0;

  // Torn-tail crash-hook registration (0 = none registered).
  std::uint64_t crash_hook_token_ = 0;

  // Most recent append, tracked for torn-tail truncation on crash.
  bool has_last_append_ = false;
  std::uint32_t last_append_zone_ = 0;
  std::uint64_t last_append_end_ = 0;  // write pointer after the append
  std::uint64_t last_append_len_ = 0;
};

}  // namespace kvcsd::storage
