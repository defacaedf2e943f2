// Zone manager (paper §IV): allocates ZNS zones in groups called *zone
// clusters* and spreads writes across a cluster's zones starting at a
// per-cluster random offset, so concurrent keyspace writers do not pile
// onto the same SSD channels ("channel conflicts").
//
// Five cluster types exist, matching the five zone roles in Fig. 4:
// KLOG/VLOG for unsorted logs while a keyspace is WRITABLE, and
// PIDX/SIDX/SORTED_VALUES once it is COMPACTED (plus TEMP clusters holding
// intermediate merge-sort runs).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/task.h"
#include "storage/zns.h"

namespace kvcsd::device {

enum class ZoneType : std::uint8_t {
  kKlog = 0,
  kVlog,
  kPidx,
  kSidx,
  kSortedValues,
  kTemp,  // intermediate merge-sort output, released after the sort
};

// Stable lowercase role name for metric keys and trace labels ("klog",
// "vlog", "pidx", "sidx", "sorted_values", "temp").
const char* ZoneTypeName(ZoneType type);

using ClusterId = std::uint64_t;

// Zones 0 and 1 hold the ping-pong keyspace-metadata snapshots (the
// table alternates between them so a crash between Reset and the rewrite
// can never lose both copies); no cluster ever owns them.
inline constexpr std::uint32_t kReservedZones = 2;

struct ZoneManagerConfig {
  std::uint32_t zones_per_cluster = 4;
};

class ZoneManager {
 public:
  ZoneManager(storage::ZnsSsd* ssd, ZoneManagerConfig config,
              std::uint64_t seed = 42);

  // Claims `zones` free zones (0 = `zones_per_cluster`). Fails with
  // kOutOfSpace when the free pool is exhausted. Full-width clusters take
  // the lowest free zones. A narrower one (a one-zone metadata blob) is
  // carved from the top of the pool and released back there, so it never
  // shifts the zone (and channel) layout of the striped data clusters; a
  // one-zone cluster has no rotation to seed and draws nothing from the
  // placement RNG.
  Result<ClusterId> AllocateCluster(ZoneType type, std::uint32_t zones = 0);

  // Resets every zone of every listed cluster concurrently, joins the
  // resets, then returns each cluster's zones to the free pool in list
  // order (the pool order a one-by-one release would leave). A cluster
  // keeps every zone until all of them are reset, so no zone is ever both
  // owned and free; one with a failed reset stays whole and owned.
  // Unknown ids, repeats and clusters already in another in-flight batch
  // are skipped. Returns the first failed reset in list order, or OK.
  sim::Task<Status> ReleaseClusters(std::vector<ClusterId> ids);
  // ReleaseClusters for a caller that cannot act on a failed reset: the
  // clusters are garbage once no snapshot references them, and recovery
  // reclaims any a failed reset leaves owned. While power is on, each
  // failed release is counted in "<prefix>device.zones.release_failed"
  // (registered on its first failure) and leaves a breadcrumb in the
  // event ring; after a power cut every reset fails and it stays silent.
  sim::Task<void> ReleaseBestEffort(std::vector<ClusterId> ids);
  // Leaves the listed clusters out of every later snapshot (SerializeTo)
  // while they stay allocated: dead clusters waiting for a release. After
  // a power cut recovery finds their written zones owned by no cluster and
  // resets them. Unknown ids are skipped.
  void Unlist(const std::vector<ClusterId>& ids);

  // Appends a contiguous record to the cluster, rotating the target zone
  // per append starting at the cluster's random offset. Returns the device
  // byte address of the record. Fails with kOutOfSpace when no zone in the
  // cluster can hold the record (caller allocates a follow-up cluster).
  // `act` attributes NAND channel time per activity class.
  sim::Task<Result<std::uint64_t>> Append(
      ClusterId id, std::span<const std::byte> data,
      sim::Activity act = sim::Activity::kOther);

  // Reads back exactly `out.size()` bytes from device address `addr`.
  sim::Task<Status> Read(std::uint64_t addr, std::span<std::byte> out,
                         sim::Activity act = sim::Activity::kOther) {
    return ssd_->Read(addr, out, act);
  }

  ZoneType cluster_type(ClusterId id) const;
  const std::vector<std::uint32_t>& cluster_zones(ClusterId id) const;
  std::size_t free_zones() const { return free_zones_.size(); }
  std::size_t live_clusters() const { return clusters_.size(); }
  // Diagnostic: ids and types of every live cluster.
  std::vector<std::pair<ClusterId, ZoneType>> LiveClusters() const {
    std::vector<std::pair<ClusterId, ZoneType>> out;
    for (const auto& [id, c] : clusters_) out.emplace_back(id, c.type);
    return out;
  }
  storage::ZnsSsd* ssd() { return ssd_; }

  // Total payload bytes a cluster currently stores.
  std::uint64_t ClusterBytes(ClusterId id) const;

  // Serializes the allocation table (cluster ids, types, zones, rotation
  // cursors; unlisted clusters left out) for the metadata snapshot, and
  // restores it on recovery. The
  // free pool is rebuilt from scratch: every non-reserved zone not owned
  // by a cluster, LIFO highest-first like the constructor.
  void SerializeTo(std::string* out) const;
  Status RestoreFrom(Slice* in);

 private:
  struct Cluster {
    ZoneType type;
    std::vector<std::uint32_t> zones;
    std::uint32_t next_zone;  // rotation cursor, randomly seeded
    bool releasing = false;   // its zones are being reset by a batch
    bool unlisted = false;    // left out of snapshots (Unlist)
  };

  storage::ZnsSsd* ssd_;
  ZoneManagerConfig config_;
  Rng rng_;
  // Free pool, highest zone id first: full-width clusters pop from the
  // back (LIFO), narrower ones from the front.
  std::vector<std::uint32_t> free_zones_;
  std::map<ClusterId, Cluster> clusters_;
  ClusterId next_cluster_id_ = 1;
};

}  // namespace kvcsd::device
