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
#include "sim/parallel.h"

namespace kvcsd::device {

struct DeviceTestPeer {
  // GatherValues: dedupe and coalescing behavior is pinned directly
  // instead of inferred from query timings.
  using ValueRef = Device::ValueRef;
  static sim::Task<Result<std::vector<std::string>>> Gather(
      Device* dev, std::vector<Device::ValueRef> refs) {
    return dev->GatherValues(std::move(refs));
  }

  // Point lookups: the span-read rule, the device-side lookup itself (so
  // its device time is measured without the host path), the index-block
  // read, and an index cache emptied on demand for cold lookups.
  static bool SpanReadEligible(Device* dev, std::uint64_t keyspace_id,
                               const SketchEntry& entry) {
    return dev->SpanReadEligible(keyspace_id, entry);
  }
  static sim::Task<Result<std::string>> QueryPoint(Device* dev, Keyspace* ks,
                                                   std::string key) {
    co_return co_await dev->QueryPoint(ks, key);
  }
  static sim::Task<Result<std::string>> ReadIndexBlock(
      Device* dev, std::uint64_t keyspace_id, const SketchEntry& entry) {
    return dev->ReadIndexBlock(keyspace_id, entry);
  }
  static void ClearIndexCache(Device* dev) { dev->index_cache_.Clear(); }

  // The gather's range reads as they went out before the channel
  // round-robin: in address order, gather_fanout at a time, each paying
  // the per-I/O software path. `refs` must be address-sorted and far
  // enough apart that none coalesce.
  static sim::Task<Status> AddressOrderReads(Device* dev,
                                             std::vector<ValueRef> refs) {
    auto read = [dev, &refs](std::size_t i) -> sim::Task<Status> {
      std::string buffer(refs[i].len, '\0');
      co_await dev->cpu_.Compute(dev->config_.costs.io_path_overhead,
                                 sim::Activity::kHostRead);
      co_return co_await dev->ssd_.Read(
          refs[i].addr,
          std::span<std::byte>(reinterpret_cast<std::byte*>(buffer.data()),
                               buffer.size()),
          sim::Activity::kHostRead);
    };
    co_return co_await sim::ParallelFor(dev->sim_, refs.size(),
                                        dev->config_.gather_fanout, read);
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
