#include "kvcsd/zone_manager.h"

#include <algorithm>
#include <string>

#include "common/coding.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace kvcsd::device {

const char* ZoneTypeName(ZoneType type) {
  switch (type) {
    case ZoneType::kKlog:
      return "klog";
    case ZoneType::kVlog:
      return "vlog";
    case ZoneType::kPidx:
      return "pidx";
    case ZoneType::kSidx:
      return "sidx";
    case ZoneType::kSortedValues:
      return "sorted_values";
    case ZoneType::kTemp:
      return "temp";
  }
  return "unknown";
}

ZoneManager::ZoneManager(storage::ZnsSsd* ssd, ZoneManagerConfig config,
                         std::uint64_t seed)
    : ssd_(ssd), config_(config), rng_(seed) {
  free_zones_.reserve(ssd->num_zones());
  // LIFO pool, highest ids first, so allocation hands out low zone ids in
  // ascending order (and therefore consecutive channels) per cluster.
  for (std::uint32_t z = ssd->num_zones(); z-- > kReservedZones;) {
    free_zones_.push_back(z);
  }
  // The reserved zones hold the ping-pong metadata snapshots.
  for (std::uint32_t z = 0; z < kReservedZones; ++z) {
    ssd_->TagZone(z, "meta");
  }
}

Result<ClusterId> ZoneManager::AllocateCluster(ZoneType type,
                                               std::uint32_t zones) {
  if (zones == 0) zones = config_.zones_per_cluster;
  if (free_zones_.size() < zones) {
    return Status::OutOfSpace(
        "zone pool exhausted (free=" + std::to_string(free_zones_.size()) +
        ", cluster needs " + std::to_string(zones) +
        ", live clusters=" + std::to_string(clusters_.size()) + ")");
  }
  Cluster cluster;
  cluster.type = type;
  cluster.zones.reserve(zones);
  if (zones < config_.zones_per_cluster) {
    cluster.zones.assign(free_zones_.begin(), free_zones_.begin() + zones);
    free_zones_.erase(free_zones_.begin(), free_zones_.begin() + zones);
  }
  while (cluster.zones.size() < zones) {
    cluster.zones.push_back(free_zones_.back());
    free_zones_.pop_back();
  }
  // Attribute the zones' I/O to their new role. Released zones keep their
  // old tag until reallocated, so a release's resets still land on the
  // role that owned the data.
  for (std::uint32_t zone : cluster.zones) {
    ssd_->TagZone(zone, ZoneTypeName(type));
  }
  // The paper's channel-conflict mitigation: start the write rotation at a
  // random zone so simultaneous writers land on different channels.
  cluster.next_zone = zones == 1 ? 0
                                 : static_cast<std::uint32_t>(
                                       rng_.Uniform(cluster.zones.size()));
  const ClusterId id = next_cluster_id_++;
  clusters_.emplace(id, std::move(cluster));
  return id;
}

sim::Task<Status> ZoneManager::ReleaseClusters(std::vector<ClusterId> ids) {
  // Claim the batch: the flag makes repeats and concurrent batches skip a
  // cluster whose resets are already in flight.
  std::vector<std::pair<ClusterId, std::size_t>> batch;  // id, zone count
  std::vector<std::uint32_t> zones;
  for (ClusterId id : ids) {
    auto it = clusters_.find(id);
    if (it == clusters_.end() || it->second.releasing) continue;
    it->second.releasing = true;
    batch.emplace_back(id, it->second.zones.size());
    zones.insert(zones.end(), it->second.zones.begin(),
                 it->second.zones.end());
  }
  // Reset every zone BEFORE surrendering ownership. The resets suspend,
  // and meanwhile another coroutine may allocate a cluster or persist a
  // metadata snapshot: a zone must never be observable as both
  // cluster-owned and free, or the persisted table fails recovery's
  // exclusive-ownership check (and the zone can be handed out twice).
  const std::vector<Status> reset = co_await ssd_->ResetZones(zones);
  // No suspension from here on: ownership moves atomically.
  Status first_error;
  auto result = reset.begin();
  for (const auto& [id, count] : batch) {
    const auto end = result + static_cast<std::ptrdiff_t>(count);
    const auto failed =
        std::find_if(result, end, [](const Status& s) { return !s.ok(); });
    result = end;
    // Still live: the releasing flag kept every other release off it.
    Cluster& cluster = clusters_.at(id);
    if (failed != end) {
      // Consistent, just not released: the cluster still owns every
      // zone, some merely empty, and stays releasable.
      if (first_error.ok()) first_error = *failed;
      cluster.releasing = false;
      continue;
    }
    const bool narrow = cluster.zones.size() < config_.zones_per_cluster;
    free_zones_.insert(narrow ? free_zones_.begin() : free_zones_.end(),
                       cluster.zones.begin(), cluster.zones.end());
    clusters_.erase(id);
  }
  co_return first_error;
}

sim::Task<void> ZoneManager::ReleaseBestEffort(std::vector<ClusterId> ids) {
  const Status released = co_await ReleaseClusters(std::move(ids));
  const sim::FaultInjector* faults = ssd_->fault_injector();
  if (released.ok() || (faults != nullptr && faults->crashed())) co_return;
  sim::Simulation* sim = ssd_->sim();
  const std::string& prefix = ssd_->config().stats_prefix;
  sim->stats().counter(prefix + "device.zones.release_failed").Increment();
  sim->log().Warn("zones", prefix + "release failed, recovery reclaims: " +
                               released.ToString());
}

sim::Task<Result<std::uint64_t>> ZoneManager::Append(
    ClusterId id, std::span<const std::byte> data, sim::Activity act) {
  auto it = clusters_.find(id);
  if (it == clusters_.end()) {
    co_return Status::NotFound("no such cluster");
  }
  Cluster& cluster = it->second;
  if (data.size() > ssd_->zone_size()) {
    co_return Status::InvalidArgument("record larger than a zone");
  }
  // Try each zone once, starting at the rotation cursor.
  for (std::size_t attempt = 0; attempt < cluster.zones.size(); ++attempt) {
    const std::uint32_t zone = cluster.zones[cluster.next_zone];
    cluster.next_zone =
        static_cast<std::uint32_t>((cluster.next_zone + 1) %
                                   cluster.zones.size());
    if (ssd_->zone_state(zone) != storage::ZoneState::kFull &&
        ssd_->write_pointer(zone) + data.size() <= ssd_->zone_size()) {
      co_return co_await ssd_->Append(zone, data, act);
    }
  }
  co_return Status::OutOfSpace("cluster full");
}

ZoneType ZoneManager::cluster_type(ClusterId id) const {
  return clusters_.at(id).type;
}

const std::vector<std::uint32_t>& ZoneManager::cluster_zones(
    ClusterId id) const {
  return clusters_.at(id).zones;
}

std::uint64_t ZoneManager::ClusterBytes(ClusterId id) const {
  std::uint64_t total = 0;
  for (std::uint32_t zone : clusters_.at(id).zones) {
    total += ssd_->write_pointer(zone);
  }
  return total;
}

void ZoneManager::Unlist(const std::vector<ClusterId>& ids) {
  for (ClusterId id : ids) {
    auto it = clusters_.find(id);
    if (it != clusters_.end()) it->second.unlisted = true;
  }
}

void ZoneManager::SerializeTo(std::string* out) const {
  PutVarint64(out, next_cluster_id_);
  PutVarint64(out, static_cast<std::uint64_t>(std::count_if(
                       clusters_.begin(), clusters_.end(), [](const auto& c) {
                         return !c.second.unlisted;
                       })));
  for (const auto& [id, cluster] : clusters_) {
    if (cluster.unlisted) continue;
    PutVarint64(out, id);
    out->push_back(static_cast<char>(cluster.type));
    PutVarint32(out, cluster.next_zone);
    PutVarint32(out, static_cast<std::uint32_t>(cluster.zones.size()));
    for (std::uint32_t zone : cluster.zones) PutVarint32(out, zone);
  }
}

Status ZoneManager::RestoreFrom(Slice* in) {
  std::uint64_t next_id = 0;
  std::uint64_t count = 0;
  if (!GetVarint64(in, &next_id) || !GetVarint64(in, &count)) {
    return Status::Corruption("zone-manager table header");
  }
  std::map<ClusterId, Cluster> clusters;
  std::vector<bool> owned(ssd_->num_zones(), false);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::uint32_t next_zone = 0;
    std::uint32_t num_zones = 0;
    if (!GetVarint64(in, &id) || in->empty()) {
      return Status::Corruption("zone-manager cluster record");
    }
    const auto type = static_cast<ZoneType>((*in)[0]);
    in->remove_prefix(1);
    if (type > ZoneType::kTemp) {
      return Status::Corruption("zone-manager cluster type");
    }
    if (!GetVarint32(in, &next_zone) || !GetVarint32(in, &num_zones)) {
      return Status::Corruption("zone-manager cluster record");
    }
    Cluster cluster;
    cluster.type = type;
    cluster.zones.reserve(num_zones);
    for (std::uint32_t z = 0; z < num_zones; ++z) {
      std::uint32_t zone = 0;
      if (!GetVarint32(in, &zone)) {
        return Status::Corruption("zone-manager cluster zones");
      }
      if (zone >= ssd_->num_zones() || zone < kReservedZones ||
          owned[zone]) {
        return Status::Corruption("zone-manager zone id");
      }
      owned[zone] = true;
      cluster.zones.push_back(zone);
    }
    if (num_zones == 0 || next_zone >= num_zones || id >= next_id) {
      return Status::Corruption("zone-manager cluster shape");
    }
    cluster.next_zone = next_zone;
    clusters.emplace(id, std::move(cluster));
  }

  clusters_ = std::move(clusters);
  next_cluster_id_ = next_id == 0 ? 1 : next_id;
  for (const auto& [id, cluster] : clusters_) {
    for (std::uint32_t zone : cluster.zones) {
      ssd_->TagZone(zone, ZoneTypeName(cluster.type));
    }
  }
  free_zones_.clear();
  for (std::uint32_t z = ssd_->num_zones(); z-- > kReservedZones;) {
    if (!owned[z]) free_zones_.push_back(z);
  }
  return Status::Ok();
}

}  // namespace kvcsd::device
