// White-box access to Device internals for the device suites (friended in
// kvcsd/device.h), plus the checks built on it. One definition shared by
// every test file, so the friend struct stays ODR-clean inside the single
// kvcsd_test binary.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <set>
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

  // Runs one compaction of `ks` (an incremental fold when it is
  // COMPACTED) the way kCompact starts it, but returns the job's own
  // status (the command acks before the job runs, so a client only ever
  // sees the rolled-back state). `fused_specs` are built in the same pass.
  static sim::Task<Status> Compact(
      Device* dev, Keyspace* ks,
      std::vector<nvme::SecondaryIndexSpec> fused_specs = {}) {
    return dev->BeginCompaction(ks, std::move(fused_specs));
  }
};

// Cluster ownership on a quiescent device: every live zone cluster belongs
// to exactly one keyspace's layout, and every cluster a keyspace names is
// live. Nothing leaked, nothing dangling.
inline void ExpectClustersOwnedOnce(Device* dev) {
  std::map<ClusterId, int> owners;
  for (const auto& [id, ks] : dev->keyspaces().all()) {
    for (ClusterId cluster : ks->Clusters()) ++owners[cluster];
  }
  std::set<ClusterId> live;
  for (const auto& [cluster, type] : dev->zones().LiveClusters()) {
    live.insert(cluster);
    const auto it = owners.find(cluster);
    EXPECT_EQ(it == owners.end() ? 0 : it->second, 1)
        << "owners of live cluster " << cluster;
  }
  for (const auto& [cluster, count] : owners) {
    EXPECT_TRUE(live.contains(cluster))
        << "a keyspace names released cluster " << cluster;
  }
}

}  // namespace kvcsd::device
