// Wire codec for kGetLogPage payloads.
//
// Real CSDs expose device health and statistics as NVMe log pages the host
// pulls over the admin queue; this module is our equivalent. Pages are
// versioned, flat, little-endian encodings (common/coding.h) shared by the
// device-side encoder (src/kvcsd/device.cc) and the host-side decoder
// (src/client/client.cc), so both ends agree on the format by construction.
//
// One page exists: kHealth, the point-in-time gauges — free zones,
// per-role zone budgets, delta-index bytes, inflight/compaction state, and
// the windowed per-activity utilization section (util.<resource>.<class>).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "nvme/command.h"

namespace kvcsd::nvme {

// Bump when an encoding changes shape; decoders reject other versions.
inline constexpr std::uint16_t kLogPageVersion = 1;

// kHealth: named u64 gauges, same shape as a telemetry sample.
struct HealthPage {
  std::uint16_t version = kLogPageVersion;
  Tick tick = 0;  // device tick at which the page was assembled
  std::vector<std::pair<std::string, std::uint64_t>> gauges;

  // Convenience lookup; returns 0 for an absent gauge.
  std::uint64_t Gauge(const std::string& name) const;
};

std::string EncodeHealthPage(const HealthPage& page);

// Returns false on truncated input, a version mismatch, or a page id other
// than kHealth.
bool DecodeHealthPage(const std::string& payload, HealthPage* page);

}  // namespace kvcsd::nvme
