// Crash-consistent recovery (DESIGN.md §8).
//
// The recovery contract rests on one ordering rule the runtime obeys
// everywhere: metadata persists BEFORE the clusters it stops referencing
// are released. The persisted snapshot is therefore always a superset of
// the live allocation — a crash can leak clusters and zones (allocated
// after the snapshot, or released-but-still-referenced by a stale
// snapshot), never dangle them. Recovery's job is purely subtractive:
//
//   1. Load the newest intact metadata snapshot (keyspace table + the
//      zone-cluster allocation table) from the ping-pong metadata zones,
//      and read back the index blobs (sketches, bloom filters) it
//      references; a blob failing its CRC check fails recovery with
//      Corruption.
//   2. Complete drops that were acknowledged but deferred behind a
//      compaction or pinned handlers — the snapshot carries their
//      pending_delete tombstone, persisted before the ack. Then roll
//      keyspaces caught (RE)COMPACTING back by the live rollback rule
//      (Keyspace::RollBackCompaction). Their inputs are intact: neither
//      kind touches them before its commit point.
//   3. Release clusters no keyspace references (uncommitted compaction
//      outputs, TEMP runs, logs of half-dropped keyspaces).
//   4. Reset written zones no cluster owns (allocations newer than the
//      snapshot whose cluster ids died with DRAM), in the same concurrent
//      reset batch as step 3.
//   5. Replay the KLOG chains of WRITABLE keyspaces and the delta logs of
//      COMPACTED ones through the live apply step (ApplyMutation),
//      truncating the torn tail a power cut may have left mid-zone so
//      future appends never follow garbage.
//   6. Persist the recovered state, giving the next crash a clean base.
#include <algorithm>
#include <set>

#include "kvcsd/device.h"
#include "kvcsd/klog_stream.h"
#include "sim/parallel.h"
#include "sim/fault.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Drops the last `torn` bytes of a zone's extent by rewriting the
// surviving prefix: read it back, reset, re-append. A torn KLOG tail must
// not stay on flash — the zone keeps taking appends while its keyspace is
// WRITABLE, and framed records appended after garbage would be
// unreachable to every later sequential parse.
sim::Task<Status> TruncateZoneTail(storage::ZnsSsd* ssd, std::uint32_t zone,
                                   std::uint64_t torn) {
  const std::uint64_t keep = ssd->write_pointer(zone) - torn;
  std::string survivor(keep, '\0');
  if (keep > 0) {
    KVCSD_CO_RETURN_IF_ERROR(co_await ssd->Read(
        static_cast<std::uint64_t>(zone) * ssd->zone_size(),
        std::span<std::byte>(reinterpret_cast<std::byte*>(survivor.data()),
                             survivor.size())));
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await ssd->Reset(zone));
  if (keep > 0) {
    auto addr = co_await ssd->Append(
        zone, std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(survivor.data()),
                  survivor.size()));
    KVCSD_CO_RETURN_IF_ERROR(addr.status());
  }
  co_return Status::Ok();
}

}  // namespace

sim::Task<Status> Device::Recover() {
  sim::TraceSpan span(sim_, trk_recovery_, "recover");
  sim::Log& log = sim_->log();
  log.Info("recovery", "start (crash point '" +
                           (faults_ != nullptr ? faults_->crash_point()
                                               : std::string()) +
                           "')");
  // The snapshot about to load may describe different index layouts than
  // whatever queries cached before; a restarted Device starts with an
  // empty cache anyway, but Recover() can also re-run over a live one.
  index_cache_.Clear();
  auto recovered = co_await keyspace_manager_.Recover();
  KVCSD_CO_RETURN_IF_ERROR(recovered.status());
  log.Info("recovery",
           "metadata snapshot loaded: " + std::to_string(*recovered) +
               " keyspaces");

  // Step 2a: complete acknowledged drops. A deferred drop persists its
  // pending_delete tombstone BEFORE acking, so a tombstoned keyspace in
  // the snapshot means the client was told the drop succeeded — it must
  // not resurface. Erasing it here makes its clusters unreferenced; steps
  // 3/4 reclaim them.
  std::vector<std::uint64_t> tombstoned;
  for (const auto& [id, ks_ptr] : keyspace_manager_.all()) {
    if (ks_ptr->pending_delete) tombstoned.push_back(id);
  }
  for (std::uint64_t id : tombstoned) {
    KVCSD_CO_RETURN_IF_ERROR(keyspace_manager_.Erase(id));
  }
  if (!tombstoned.empty()) {
    log.Info("recovery", "completed " + std::to_string(tombstoned.size()) +
                             " acknowledged drop(s)");
  }

  // Step 2b: a (re)compaction in the snapshot never committed. Its inputs
  // are whole: a fold writes only fresh clusters before its commit
  // persist, and a full compaction installs its outputs in the same step
  // that sets COMPACTED (Device::Commit), so a COMPACTING keyspace
  // names only its logs. Roll back by the live rule; partial outputs are
  // referenced by no keyspace and die in steps 3/4, and step 5 replays a
  // rolled-back fold's delta chains. Volatile runtime state (pins, the
  // keyspace runtime) starts fresh: the table load constructed every
  // Keyspace.
  for (const auto& [id, ks_ptr] : keyspace_manager_.all()) {
    Keyspace* ks = ks_ptr.get();
    if (!ks->compacting()) continue;
    const bool fold = ks->state == KeyspaceState::kRecompacting;
    ks->RollBackCompaction();
    log.Warn("recovery", std::string("rolled back uncommitted ") +
                             (fold ? "re-compaction" : "compaction") +
                             " on keyspace '" + ks->name + "'");
  }

  // Step 3: reclaim clusters referenced by no keyspace.
  std::set<ClusterId> referenced;
  for (const auto& [id, ks_ptr] : keyspace_manager_.all()) {
    for (ClusterId cluster : ks_ptr->Clusters()) referenced.insert(cluster);
  }
  std::vector<ClusterId> doomed;
  for (const auto& [cluster, type] : zone_manager_.LiveClusters()) {
    if (!referenced.contains(cluster)) doomed.push_back(cluster);
  }
  if (!doomed.empty()) {
    log.Info("recovery", "reclaiming " + std::to_string(doomed.size()) +
                             " unreferenced cluster(s)");
  }

  // Step 4: reset written zones no cluster owns — data from clusters
  // allocated after the snapshot was taken. A doomed cluster owns its
  // zones until all of them are reset, so steps 3 and 4 touch disjoint
  // zones and their resets run as one concurrent batch: recovery pays one
  // reset latency for both. The free pool changes only as step 3 returns
  // its clusters' zones; unowned zones are in it already.
  std::vector<bool> owned(ssd_.num_zones(), false);
  for (const auto& [cluster, type] : zone_manager_.LiveClusters()) {
    for (std::uint32_t zone : zone_manager_.cluster_zones(cluster)) {
      owned[zone] = true;
    }
  }
  std::vector<std::uint32_t> unowned;
  for (std::uint32_t zone = kReservedZones; zone < ssd_.num_zones(); ++zone) {
    if (owned[zone]) continue;
    if (ssd_.write_pointer(zone) == 0 &&
        ssd_.zone_state(zone) == storage::ZoneState::kEmpty) {
      continue;
    }
    unowned.push_back(zone);
  }
  // Best-effort: a cluster whose reset fails stays allocated and
  // unreferenced, so the next recovery reclaims it.
  sim::TaskGroup release(sim_);
  release.Spawn([](ZoneManager* zones,
                   std::vector<ClusterId> ids) -> sim::Task<Status> {
    co_await zones->ReleaseBestEffort(std::move(ids));
    co_return Status::Ok();
  }(&zone_manager_, std::move(doomed)));
  const std::vector<Status> resets = co_await ssd_.ResetZones(unowned);
  (void)co_await release.Wait();
  for (const Status& s : resets) KVCSD_CO_RETURN_IF_ERROR(s);
  if (!unowned.empty()) {
    log.Info("recovery",
             "reset " + std::to_string(unowned.size()) + " unowned zone(s)");
  }

  // Step 5: rebuild the DRAM view of the logs from the logs themselves.
  // For a COMPACTED keyspace the klog/vlog chains are its post-compaction
  // delta log, and the replay rebuilds the delta index merged reads
  // consult. Every other count the keyspace reports is computed from the
  // snapshot's fields (Keyspace::NumKvs) or the chains' write pointers.
  for (const auto& [id, ks_ptr] : keyspace_manager_.all()) {
    Keyspace* ks = ks_ptr.get();
    if (ks->state == KeyspaceState::kWritable ||
        (ks->state == KeyspaceState::kCompacted &&
         !ks->klog_clusters.empty())) {
      KVCSD_CO_RETURN_IF_ERROR(co_await ReplayLogs(ks));
    }
  }

  // Step 6: make the cleaned-up state durable (this also redirects the
  // snapshot log away from any torn metadata tail — see
  // KeyspaceManager::Recover).
  const Status persisted = co_await keyspace_manager_.Persist();
  log.Info("recovery", persisted.ok() ? "complete"
                                      : "failed: " + persisted.ToString());
  co_return persisted;
}

sim::Task<Status> Device::ReplayLogs(Keyspace* ks) {
  const bool delta = ks->state == KeyspaceState::kCompacted;
  sim::TraceSpan span(sim_, trk_recovery_,
                      delta ? "replay_delta" : "replay_klog");
  span.Arg("keyspace", ks->name);
  std::uint64_t max_seq = 0;
  std::vector<KlogEntry> parsed;
  for (ClusterId cluster : ks->klog_clusters) {
    for (std::uint32_t zone : zone_manager_.cluster_zones(cluster)) {
      KlogZoneStream stream(&ssd_, zone, config_.output_batch_bytes,
                            nullptr);
      for (;;) {
        parsed.clear();
        auto more = co_await stream.NextBatch(&parsed);
        if (!more.ok()) co_return more.status();
        if (!*more) break;
        for (const KlogEntry& e : parsed) {
          max_seq = std::max(max_seq, e.seq);
          // Only the VLOG pointer survives DRAM: no inline value.
          ApplyMutation(ks, e.key,
                        DeltaEntry{.seq = e.seq,
                                   .vaddr = e.value_addr,
                                   .vlen = e.value_len,
                                   .tombstone = e.tombstone,
                                   .has_value = false,
                                   .value = {}});
        }
      }
      if (stream.torn_bytes() > 0) {
        sim_->log().Warn("recovery", "keyspace '" + ks->name + "' " +
                                         (delta ? "delta zone " : "zone ") +
                                         std::to_string(zone) +
                                         ": truncating " +
                                         std::to_string(stream.torn_bytes()) +
                                         " torn byte(s)");
        KVCSD_CO_RETURN_IF_ERROR(
            co_await TruncateZoneTail(&ssd_, zone, stream.torn_bytes()));
      }
    }
  }
  ks->next_seq = max_seq + 1;
  co_return Status::Ok();
}

}  // namespace kvcsd::device
