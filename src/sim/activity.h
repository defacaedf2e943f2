// Activity classes for per-class busy-time attribution (sim/resources.h).
// Split out of resources.h so wire-level code can name a class without
// depending on the simulation machinery.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kvcsd::sim {

// Who a resource is working for. Busy time on every metered resource is
// attributed to one of these classes so telemetry can separate "the NAND is
// saturated by compaction" from "the NAND is saturated by host reads" —
// since-boot busy totals (BandwidthResource::busy_time,
// CpuPool::busy_time) cannot make that distinction.
enum class Activity : std::uint8_t {
  kHostRead = 0,   // point/range/secondary lookups issued by the host
  kHostWrite = 1,  // puts, deletes, bulk ingest, buffer flushes
  kCompact = 2,    // initial compaction (KLOG sort, run build, index build)
  kRecompact = 3,  // delta fold / incremental re-compaction
  kPushdown = 4,   // kKvSelect / kKvAggregate device-side scans
  kDispatch = 5,   // the device command dispatch front-end
  kOther = 6,      // recovery, metadata, untagged work
};

inline constexpr std::size_t kActivityCount = 7;

inline const char* ActivityName(Activity act) {
  switch (act) {
    case Activity::kHostRead:
      return "host_read";
    case Activity::kHostWrite:
      return "host_write";
    case Activity::kCompact:
      return "compact";
    case Activity::kRecompact:
      return "recompact";
    case Activity::kPushdown:
      return "pushdown";
    case Activity::kDispatch:
      return "dispatch";
    case Activity::kOther:
      return "other";
  }
  return "other";
}

}  // namespace kvcsd::sim
