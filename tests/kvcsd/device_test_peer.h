// White-box access to Device internals for the device suites (friended in
// kvcsd/device.h). One definition shared by every test file, so the
// friend struct stays ODR-clean inside the single kvcsd_test binary.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kvcsd/device.h"

namespace kvcsd::device {

struct DeviceTestPeer {
  // GatherValues: dedupe and coalescing behavior is pinned directly
  // instead of inferred from query timings.
  using ValueRef = Device::ValueRef;
  static sim::Task<Result<std::vector<std::string>>> Gather(
      Device* dev, std::vector<Device::ValueRef> refs) {
    return dev->GatherValues(std::move(refs));
  }

  // Runs one incremental fold of COMPACTED `ks` the way kCompact starts
  // it, but returns the fold's own status (the command acks before the
  // fold runs, so a client only ever sees the rolled-back state).
  static sim::Task<Status> Fold(Device* dev, Keyspace* ks) {
    return dev->BeginCompaction(ks);
  }
};

}  // namespace kvcsd::device
