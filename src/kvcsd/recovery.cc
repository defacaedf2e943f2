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
//      snapshot whose cluster ids died with DRAM).
//   5. Replay the KLOG chains of WRITABLE keyspaces to rebuild num_kvs /
//      min_key / max_key, truncating the torn tail a power cut may have
//      left mid-zone so future appends never follow garbage.
//   6. Persist the recovered state, giving the next crash a clean base.
#include <algorithm>
#include <set>

#include "kvcsd/device.h"
#include "kvcsd/klog_stream.h"
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
  // Best-effort: a cluster whose reset fails stays allocated and
  // unreferenced, so the next recovery reclaims it.
  co_await zone_manager_.ReleaseBestEffort(std::move(doomed));

  // Step 4: reset written zones no surviving cluster owns — data from
  // clusters allocated after the snapshot was taken.
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
  const std::vector<Status> resets = co_await ssd_.ResetZones(unowned);
  for (const Status& s : resets) KVCSD_CO_RETURN_IF_ERROR(s);
  if (!unowned.empty()) {
    log.Info("recovery",
             "reset " + std::to_string(unowned.size()) + " unowned zone(s)");
  }

  // Step 5: rebuild the write-path counters from the logs themselves. For
  // a COMPACTED keyspace the klog/vlog chains are its post-compaction
  // delta log; replaying them rebuilds the DRAM delta index merged reads
  // consult (and the next_seq last-writer-wins counter).
  for (const auto& [id, ks_ptr] : keyspace_manager_.all()) {
    Keyspace* ks = ks_ptr.get();
    if (ks->state == KeyspaceState::kWritable) {
      KVCSD_CO_RETURN_IF_ERROR(co_await ReplayKlogChains(ks));
    } else if (ks->state == KeyspaceState::kEmpty) {
      ks->num_kvs = 0;
      ks->min_key.clear();
      ks->max_key.clear();
      ks->klog_bytes = 0;
      ks->vlog_bytes = 0;
    } else if (ks->state == KeyspaceState::kCompacted) {
      if (!ks->klog_clusters.empty()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await ReplayDeltaChains(ks));
      } else {
        ks->delta_index.clear();
        ks->delta_live = 0;
        ks->num_kvs = ks->run_entries;
        ks->klog_bytes = 0;
        ks->vlog_bytes = 0;
      }
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

sim::Task<Status> Device::ReplayKlog(
    Keyspace* ks, const char* zone_label,
    std::function<void(const KlogEntry&)> visit) {
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
          visit(e);
        }
      }
      if (stream.torn_bytes() > 0) {
        sim_->log().Warn(
            "recovery", "keyspace '" + ks->name + "' " + zone_label + " " +
                            std::to_string(zone) + ": truncating " +
                            std::to_string(stream.torn_bytes()) +
                            " torn byte(s)");
        KVCSD_CO_RETURN_IF_ERROR(
            co_await TruncateZoneTail(&ssd_, zone, stream.torn_bytes()));
      }
    }
  }
  ks->next_seq = max_seq + 1;
  ks->klog_bytes = 0;
  for (ClusterId cluster : ks->klog_clusters) {
    ks->klog_bytes += zone_manager_.ClusterBytes(cluster);
  }
  ks->vlog_bytes = 0;
  for (ClusterId cluster : ks->vlog_clusters) {
    ks->vlog_bytes += zone_manager_.ClusterBytes(cluster);
  }
  co_return Status::Ok();
}

sim::Task<Status> Device::ReplayKlogChains(Keyspace* ks) {
  sim::TraceSpan span(sim_, trk_recovery_, "replay_klog");
  span.Arg("keyspace", ks->name);
  ks->num_kvs = 0;
  ks->min_key.clear();
  ks->max_key.clear();
  bool have_bounds = false;
  auto visit = [ks, &have_bounds](const KlogEntry& e) {
    // num_kvs counts log records, matching the write path (DoDelete
    // increments it too); min/max track PUT keys only, also matching the
    // write path (a blind delete never widens the bounds).
    ++ks->num_kvs;
    if (e.tombstone) return;
    if (!have_bounds || e.key < ks->min_key) ks->min_key = e.key;
    if (!have_bounds || e.key > ks->max_key) ks->max_key = e.key;
    have_bounds = true;
  };
  co_return co_await ReplayKlog(ks, "zone", visit);
}

sim::Task<Status> Device::ReplayDeltaChains(Keyspace* ks) {
  sim::TraceSpan span(sim_, trk_recovery_, "replay_delta");
  span.Arg("keyspace", ks->name);
  ks->delta_index.clear();
  ks->delta_live = 0;
  ks->delta_index_bytes = 0;
  auto visit = [ks](const KlogEntry& e) {
    // Newest mutation per key wins. Compare by seq, not replay order:
    // pipelined flushes can land KLOG batches out of admission order.
    DeltaEntry& entry = ks->delta_index[e.key];
    if (entry.seq != 0 && e.seq < entry.seq) return;
    if (entry.seq != 0 && !entry.tombstone) --ks->delta_live;
    entry.seq = e.seq;
    entry.tombstone = e.tombstone;
    entry.vaddr = e.value_addr;
    entry.vlen = e.value_len;
    entry.has_value = false;  // only the VLOG pointer survives DRAM
    entry.value.clear();
    if (!e.tombstone) ++ks->delta_live;
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await ReplayKlog(ks, "delta zone", visit));
  ks->num_kvs = ks->run_entries + ks->delta_live;
  // Rebuild the DRAM-footprint gauge to match the replayed index. No
  // inline values survive a power cut (only VLOG pointers), so the
  // footprint is node overhead + key bytes per entry.
  for (const auto& kv : ks->delta_index) {
    ks->delta_index_bytes += kDeltaEntryOverhead + kv.first.size();
  }
  co_return Status::Ok();
}

}  // namespace kvcsd::device
