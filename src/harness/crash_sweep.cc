#include "harness/crash_sweep.h"

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "hostenv/cost_model.h"
#include "nvme/queue.h"
#include "sim/resources.h"
#include "sim/simulation.h"

namespace kvcsd::harness {
namespace {

// The reference model: what the client believes about one keyspace. The
// verifier holds recovery to exactly this — acknowledged state must
// survive, unacknowledged state may go either way, invented state is a
// bug.
struct KeyspaceModel {
  std::string name;
  client::KeyspaceHandle handle;
  bool create_acked = false;
  bool drop_issued = false;
  bool drop_acked = false;
  // Latest issued value per key (a DELETE erases the key here).
  std::map<std::string, std::string> sent;
  // Snapshot of `sent` at the last OK Sync.
  std::map<std::string, std::string> acked;
  // Every value ever issued for a key: after a crash any prefix of the
  // log may survive, so a recovered value is legal iff it was sent once.
  std::map<std::string, std::set<std::string>> values_ever;
  // Values issued since the last OK Sync: an acked key may legally come
  // back with one of these instead of its acked value (the newer, still
  // unacknowledged overwrite reached flash before the power cut).
  std::map<std::string, std::set<std::string>> unacked_values;
  std::set<std::string> tombstones_sent;   // DELETE issued
  std::set<std::string> tombstones_acked;  // snapshot at the last OK Sync
  // Mutations issued after the keyspace first reached COMPACTED: each
  // lands in the delta log, where an overwrite double-counts against
  // num_kvs until an incremental re-compaction folds it into the run.
  std::uint64_t post_compact_mutations = 0;

  // Deletes issued but never sealed by an OK Sync: their tombstones may
  // or may not have reached flash, so each relaxes the acked lower
  // bounds by one.
  std::uint64_t UnackedDeletes() const {
    std::uint64_t n = 0;
    for (const std::string& key : tombstones_sent) {
      if (tombstones_acked.count(key) == 0) ++n;
    }
    return n;
  }
};

struct SweepState {
  const CrashSweepConfig* config = nullptr;
  sim::FaultInjector* faults = nullptr;
  CrashSweepReport* report = nullptr;
  std::vector<KeyspaceModel> models;
  bool workload_done = false;
  bool verify_done = false;

  bool crashed() const { return faults->crashed(); }
  void Violation(std::string what) {
    report->violations.push_back(std::move(what));
  }
};

std::string KeyFor(std::uint32_t ks, std::uint32_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ks%u-k%06u", ks, i);
  return buf;
}

std::string ValueFor(const CrashSweepConfig& config, const std::string& key) {
  std::string value = "v:" + key;
  value.resize(config.value_bytes, '.');
  return value;
}

// ---------------------------------------------------------------------------
// Phase 1: the workload. Every operation either succeeds (and advances
// the model) or fails because the power went out; a failure with power
// still on is itself a violation.
// ---------------------------------------------------------------------------

sim::Task<void> WorkloadBody(SweepState* st, client::Client* db) {
  const CrashSweepConfig& cfg = *st->config;

  for (std::uint32_t i = 0; i < cfg.keyspaces; ++i) {
    KeyspaceModel& m = st->models[i];
    auto created = co_await db->CreateKeyspace(m.name);
    if (created.ok()) {
      m.handle = *created;
      m.create_acked = true;
    } else if (!st->crashed()) {
      st->Violation("create failed without a crash: " +
                    created.status().message());
      co_return;
    }
    if (st->crashed()) co_return;
  }

  // Two PUT rounds per keyspace, each sealed by a Sync; an OK Sync
  // promotes everything sent so far to "acknowledged".
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t i = 0; i < cfg.keyspaces; ++i) {
      KeyspaceModel& m = st->models[i];
      const std::uint32_t half = cfg.keys_per_keyspace / 2;
      const std::uint32_t begin = round == 0 ? 0 : half;
      const std::uint32_t end = round == 0 ? half : cfg.keys_per_keyspace;
      for (std::uint32_t k = begin; k < end; ++k) {
        const std::string key = KeyFor(i, k);
        const std::string value = ValueFor(cfg, key);
        Status put = co_await m.handle.Put(key, value);
        if (put.ok()) {
          m.sent[key] = value;
          m.values_ever[key].insert(value);
          m.unacked_values[key].insert(value);
        } else if (!st->crashed()) {
          st->Violation("put failed without a crash: " + put.message());
          co_return;
        }
        if (st->crashed()) co_return;
      }
      Status sync = co_await m.handle.Sync();
      if (sync.ok()) {
        m.acked = m.sent;
        m.tombstones_acked = m.tombstones_sent;
        m.unacked_values.clear();
      } else if (!st->crashed()) {
        st->Violation("sync failed without a crash: " + sync.message());
        co_return;
      }
      if (st->crashed()) co_return;
    }
  }

  // Drop the first keyspace (exercises drop.before_persist and the
  // release path). With one keyspace, keep it instead.
  if (cfg.keyspaces > 1) {
    KeyspaceModel& m = st->models.front();
    m.drop_issued = true;
    Status dropped = co_await db->DropKeyspace(m.name);
    if (dropped.ok()) {
      m.drop_acked = true;
    } else if (!st->crashed()) {
      st->Violation("drop failed without a crash: " + dropped.message());
      co_return;
    }
    if (st->crashed()) co_return;
  }

  // Drop a keyspace WHILE it is compacting: the deferred drop's ack
  // rides on a durable tombstone, so a crash any time after the ack —
  // including mid-compaction, before the deferred drop ever runs — must
  // still leave the keyspace dropped after recovery.
  if (cfg.keyspaces > 2) {
    KeyspaceModel& dm = st->models[1];
    Status s = co_await dm.handle.Compact();
    if (!s.ok() && !st->crashed()) {
      st->Violation("compact of deferred-drop target failed without a "
                    "crash: " + s.message());
      co_return;
    }
    if (st->crashed()) co_return;
    dm.drop_issued = true;
    Status dropped = co_await db->DropKeyspace(dm.name);
    if (dropped.ok()) {
      dm.drop_acked = true;
    } else if (!st->crashed()) {
      st->Violation("deferred drop failed without a crash: " +
                    dropped.message());
      co_return;
    }
    if (st->crashed()) co_return;
  }

  // Compact the last keyspace and read it back, covering the compaction
  // crash points and the query path.
  KeyspaceModel& m = st->models.back();
  Status s = co_await m.handle.Compact();
  if (!s.ok() && !st->crashed()) {
    st->Violation("compact failed without a crash: " + s.message());
    co_return;
  }
  if (st->crashed()) co_return;
  s = co_await m.handle.WaitCompaction();
  if (!s.ok() && !st->crashed()) {
    st->Violation("compaction wait failed without a crash: " + s.message());
    co_return;
  }
  if (st->crashed()) co_return;

  const std::uint32_t last = cfg.keyspaces - 1;
  for (std::uint32_t k = 0; k < cfg.keys_per_keyspace;
       k += cfg.keys_per_keyspace / 4 + 1) {
    const std::string key = KeyFor(last, k);
    auto got = co_await m.handle.Get(key);
    if (st->crashed()) co_return;
    if (!got.ok()) {
      st->Violation("pre-crash get failed without a crash: " +
                    got.status().message());
    } else if (*got != ValueFor(cfg, key)) {
      st->Violation("pre-crash get returned a wrong value for " + key);
    }
  }

  // Post-compaction mutation leg on the now-COMPACTED last keyspace:
  // overwrites and point deletes land in the delta log, a Sync seals
  // them, and an incremental re-compaction folds the delta into the run.
  // Walks the delta-append crash points (flush/sync over delta chains)
  // and the recompact.* commit protocol.
  const std::uint32_t stride = cfg.keys_per_keyspace / 8 + 1;
  const std::uint32_t half = cfg.keys_per_keyspace / 2;
  for (std::uint32_t k = 0; k < half; k += stride) {
    const std::string key = KeyFor(last, k);
    std::string value = "w:" + key;
    value.resize(cfg.value_bytes, '.');
    Status put = co_await m.handle.Put(key, value);
    if (put.ok()) {
      m.sent[key] = value;
      m.values_ever[key].insert(value);
      m.unacked_values[key].insert(value);
      ++m.post_compact_mutations;
    } else if (!st->crashed()) {
      st->Violation("delta put failed without a crash: " + put.message());
      co_return;
    }
    if (st->crashed()) co_return;
  }
  for (std::uint32_t k = half; k < cfg.keys_per_keyspace; k += stride) {
    const std::string key = KeyFor(last, k);
    Status del = co_await m.handle.Delete(key);
    if (del.ok()) {
      m.sent.erase(key);
      m.tombstones_sent.insert(key);
      ++m.post_compact_mutations;
    } else if (!st->crashed()) {
      st->Violation("delta delete failed without a crash: " + del.message());
      co_return;
    }
    if (st->crashed()) co_return;
  }
  for (std::uint32_t k = cfg.keys_per_keyspace;
       k < cfg.keys_per_keyspace + 3; ++k) {
    const std::string key = KeyFor(last, k);
    const std::string value = ValueFor(cfg, key);
    Status put = co_await m.handle.Put(key, value);
    if (put.ok()) {
      m.sent[key] = value;
      m.values_ever[key].insert(value);
      m.unacked_values[key].insert(value);
      ++m.post_compact_mutations;
    } else if (!st->crashed()) {
      st->Violation("delta insert failed without a crash: " + put.message());
      co_return;
    }
    if (st->crashed()) co_return;
  }
  Status delta_sync = co_await m.handle.Sync();
  if (delta_sync.ok()) {
    m.acked = m.sent;
    m.tombstones_acked = m.tombstones_sent;
    m.unacked_values.clear();
  } else if (!st->crashed()) {
    st->Violation("delta sync failed without a crash: " +
                  delta_sync.message());
    co_return;
  }
  if (st->crashed()) co_return;

  s = co_await m.handle.Compact();  // incremental re-compaction
  if (!s.ok() && !st->crashed()) {
    st->Violation("re-compaction failed without a crash: " + s.message());
    co_return;
  }
  if (st->crashed()) co_return;
  s = co_await m.handle.WaitCompaction();
  if (!s.ok() && !st->crashed()) {
    st->Violation("re-compaction wait failed without a crash: " +
                  s.message());
    co_return;
  }
  if (st->crashed()) co_return;

  // Merged read-back over the folded run.
  for (std::uint32_t k = 0; k < half; k += stride) {
    const std::string key = KeyFor(last, k);
    auto got = co_await m.handle.Get(key);
    if (st->crashed()) co_return;
    if (!got.ok()) {
      st->Violation("post-fold get failed without a crash: " +
                    got.status().message());
    } else if (*got != m.sent[key]) {
      st->Violation("post-fold get returned a stale value for " + key);
    }
  }
  for (std::uint32_t k = half; k < cfg.keys_per_keyspace; k += stride) {
    auto got = co_await m.handle.Get(KeyFor(last, k));
    if (st->crashed()) co_return;
    if (!got.status().IsNotFound()) {
      st->Violation("post-fold get of a deleted key did not return "
                    "NotFound: " + KeyFor(last, k));
    }
  }
}

sim::Task<void> RunWorkload(SweepState* st, client::Client* db) {
  co_await WorkloadBody(st, db);
  st->workload_done = true;
}

// ---------------------------------------------------------------------------
// Phase 2: power-cycle verification.
// ---------------------------------------------------------------------------

// Zone accounting must partition the device: reserved metadata zones,
// cluster-owned zones, free zones. Unowned zones must hold no data.
void CheckZoneAccounting(SweepState* st, device::Device* dev) {
  const std::uint32_t reserved = dev->config().zones.reserved_zones;
  const std::uint32_t num_zones = dev->ssd().num_zones();
  std::vector<std::uint32_t> owners(num_zones, 0);
  std::size_t owned = 0;
  for (const auto& [cluster, type] : dev->zones().LiveClusters()) {
    for (std::uint32_t zone : dev->zones().cluster_zones(cluster)) {
      if (zone < reserved || zone >= num_zones) {
        st->Violation("cluster " + std::to_string(cluster) +
                      " owns out-of-range zone " + std::to_string(zone));
        continue;
      }
      ++owners[zone];
      ++owned;
    }
  }
  for (std::uint32_t zone = 0; zone < num_zones; ++zone) {
    if (owners[zone] > 1) {
      st->Violation("zone " + std::to_string(zone) +
                    " owned by multiple clusters");
    }
    if (zone >= reserved && owners[zone] == 0 &&
        dev->ssd().write_pointer(zone) != 0) {
      st->Violation("unowned zone " + std::to_string(zone) +
                    " still holds data after recovery");
    }
  }
  if (reserved + owned + dev->zones().free_zones() != num_zones) {
    st->Violation("zone accounting mismatch: reserved=" +
                  std::to_string(reserved) + " owned=" +
                  std::to_string(owned) + " free=" +
                  std::to_string(dev->zones().free_zones()) + " total=" +
                  std::to_string(num_zones));
  }
}

// One keyspace against its model, through the public client API.
sim::Task<void> VerifyKeyspace(SweepState* st, client::Client* db,
                               KeyspaceModel* m) {
  auto opened = co_await db->OpenKeyspace(m->name);
  if (m->drop_acked) {
    if (opened.ok()) {
      st->Violation("acknowledged drop resurfaced: " + m->name);
    }
    co_return;
  }
  if (!opened.ok()) {
    // Absent is legal only if the create was never acknowledged or a
    // drop was at least issued.
    if (m->create_acked && !m->drop_issued) {
      st->Violation("acknowledged keyspace lost: " + m->name);
    }
    co_return;
  }
  client::KeyspaceHandle handle = *opened;

  auto stat = co_await handle.GetStat();
  if (!stat.ok()) {
    st->Violation("stat failed after recovery for " + m->name + ": " +
                  stat.status().message());
    co_return;
  }
  if (stat->state == "COMPACTING" || stat->state == "RECOMPACTING") {
    st->Violation("keyspace recovered in " + stat->state + " state: " +
                  m->name);
    co_return;
  }
  if (stat->state == "EMPTY") {
    if (!m->acked.empty()) {
      st->Violation("acked data lost, keyspace recovered EMPTY: " + m->name);
    }
    co_return;
  }
  if (stat->state == "WRITABLE") {
    // Power is back and no faults are armed: compaction must succeed.
    // A device-side failure rolls the keyspace back to WRITABLE without
    // failing the commands, so check the state it actually reached.
    Status s = co_await handle.Compact();
    if (s.ok()) s = co_await handle.WaitCompaction();
    if (!s.ok()) {
      st->Violation("post-recovery compaction failed for " + m->name + ": " +
                    s.message());
      co_return;
    }
    auto after = co_await handle.GetStat();
    if (after.ok() && after->state != "COMPACTED") {
      st->Violation("post-recovery compaction rolled back for " + m->name +
                    " (state " + after->state + ")");
      co_return;
    }
  }

  // Bounds carry delta slack: until the replayed delta is folded, an
  // overwrite double-counts and a tombstone does not subtract from the
  // run, so num_kvs may exceed the live-key count by up to one per
  // post-compaction mutation; unacked deletes relax the lower bound.
  auto stat2 = co_await handle.GetStat();
  if (stat2.ok()) {
    const std::uint64_t slack = m->UnackedDeletes();
    const std::uint64_t lower =
        m->acked.size() > slack ? m->acked.size() - slack : 0;
    const std::uint64_t upper = m->sent.size() + m->tombstones_sent.size() +
                                m->post_compact_mutations;
    if (stat2->num_kvs < lower || stat2->num_kvs > upper) {
      st->Violation("num_kvs=" + std::to_string(stat2->num_kvs) +
                    " outside [" + std::to_string(lower) + ", " +
                    std::to_string(upper) + "] for " + m->name);
    }
  }

  // Durability: every acknowledged key readable with its acked value —
  // or with a newer, unacknowledged overwrite that reached flash before
  // the cut. A key with an unacked DELETE in flight may be absent.
  int losses = 0;
  for (const auto& [key, value] : m->acked) {
    auto got = co_await handle.Get(key);
    if (!got.ok()) {
      if (got.status().IsNotFound() &&
          m->tombstones_sent.count(key) > 0) {
        continue;  // the unacked tombstone legally survived
      }
      st->Violation("acked key lost after recovery: " + key + " (" +
                    got.status().message() + ")");
    } else if (*got != value) {
      auto newer = m->unacked_values.find(key);
      if (newer != m->unacked_values.end() &&
          newer->second.count(*got) > 0) {
        continue;  // a newer unacked overwrite survived — legal
      }
      st->Violation("acked key has wrong value after recovery: " + key);
    } else {
      continue;
    }
    if (++losses >= 5) {
      st->Violation("... further key losses in " + m->name + " suppressed");
      break;
    }
  }

  // Acked deletes stay deleted (no later re-insert was issued for these
  // keys in this workload).
  for (const std::string& key : m->tombstones_acked) {
    if (m->sent.count(key) > 0) continue;
    auto got = co_await handle.Get(key);
    if (!got.status().IsNotFound()) {
      st->Violation("acked delete resurfaced after recovery: " + key);
      break;
    }
  }

  // Nothing invented: a full scan returns only keys the client sent,
  // each with the value it sent, and at least everything acknowledged.
  std::vector<std::pair<std::string, std::string>> all;
  Status s = co_await handle.Scan("", "\x7f", 0, &all);
  if (!s.ok()) {
    st->Violation("full scan failed after recovery for " + m->name + ": " +
                  s.message());
    co_return;
  }
  int phantoms = 0;
  for (const auto& [key, value] : all) {
    auto ever = m->values_ever.find(key);
    if (ever == m->values_ever.end()) {
      st->Violation("recovered key was never sent: " + key);
    } else if (ever->second.count(value) == 0) {
      st->Violation("recovered value was never sent for key: " + key);
    } else if (m->tombstones_acked.count(key) > 0 &&
               m->sent.count(key) == 0) {
      st->Violation("acked delete resurfaced in scan: " + key);
    } else {
      continue;
    }
    if (++phantoms >= 5) {
      st->Violation("... further scan mismatches in " + m->name +
                    " suppressed");
      break;
    }
  }
  if (all.size() + m->UnackedDeletes() < m->acked.size()) {
    st->Violation("scan returned " + std::to_string(all.size()) +
                  " keys, fewer than the " +
                  std::to_string(m->acked.size()) + " acked in " + m->name);
  }

  // The pushdown path walks the same run+delta state through a different
  // code path (select.cc); a device-counted unfiltered aggregate must agree
  // with the scan above exactly. Power is on here, so no crash can fire
  // mid-select.
  nvme::AggregateSpec count_spec;
  count_spec.func = nvme::AggregateFunc::kCount;
  auto agg_count = co_await handle.Aggregate("", "\x7f", count_spec);
  if (!agg_count.ok()) {
    st->Violation("count aggregate failed after recovery for " + m->name +
                  ": " + agg_count.status().message());
  } else if (agg_count->rows != all.size()) {
    st->Violation("count aggregate disagrees with scan in " + m->name +
                  ": aggregate=" + std::to_string(agg_count->rows) +
                  " scan=" + std::to_string(all.size()));
  }
}

sim::Task<void> VerifyBody(SweepState* st, sim::Simulation* sim,
                           device::Device* dev, client::Client* db) {
  const Tick start = sim->Now();
  Status recovered = co_await dev->Recover();
  st->report->recovery_ticks = sim->Now() - start;
  if (!recovered.ok()) {
    st->Violation("recovery failed: " + recovered.message());
    co_return;
  }

  CheckZoneAccounting(st, dev);
  for (const auto& [id, ks] : dev->keyspaces().all()) {
    if (ks->state == device::KeyspaceState::kCompacting ||
        ks->state == device::KeyspaceState::kRecompacting) {
      st->Violation("keyspace table holds a mid-compaction keyspace: " +
                    ks->name);
    }
  }

  for (KeyspaceModel& m : st->models) {
    co_await VerifyKeyspace(st, db, &m);
  }
}

sim::Task<void> RunVerify(SweepState* st, sim::Simulation* sim,
                          device::Device* dev, client::Client* db) {
  co_await VerifyBody(st, sim, dev, db);
  st->verify_done = true;
}

}  // namespace

Result<CrashSweepReport> RunCrashSweepCase(const CrashSweepConfig& config,
                                           std::uint64_t crash_at_hit) {
  if (config.keyspaces == 0) {
    return Status::InvalidArgument("crash sweep needs at least one keyspace");
  }

  sim::Simulation sim;
  sim::FaultInjector faults(config.seed);
  faults.set_torn_tail_keep(config.torn_tail_keep);
  if (crash_at_hit > 0) faults.ArmCrashAtHit(crash_at_hit);

  CrashSweepReport report;
  SweepState state;
  state.config = &config;
  state.faults = &faults;
  state.report = &report;
  state.models.resize(config.keyspaces);
  for (std::uint32_t i = 0; i < config.keyspaces; ++i) {
    state.models[i].name = "sweep" + std::to_string(i);
  }

  const device::DeviceConfig dcfg = config.DeviceConfigFor(&faults);
  nvme::QueueSet queue(&sim, nvme::QueueSetConfig{});
  auto dev = std::make_unique<device::Device>(&sim, dcfg, &queue);
  dev->Start();
  sim::CpuPool host_cpu(&sim, "host", 8);
  client::Client db(&queue, &host_cpu, hostenv::CostModel::Host());

  sim.Spawn(RunWorkload(&state, &db));
  sim.Run();
  if (!state.workload_done) {
    return Status::Aborted("crash-sweep workload never completed");
  }
  report.hits = faults.hits();
  report.fired = faults.crashed();
  report.crash_point = faults.crash_point();

  // Power cycle: a fresh device + queue over the surviving flash bytes.
  // The old device stays parked on its dead queue pair.
  nvme::QueueSet queue2(&sim, nvme::QueueSetConfig{});
  auto dev2 = device::Device::Restart(&sim, dcfg, &queue2, *dev);
  dev2->Start();
  client::Client db2(&queue2, &host_cpu, hostenv::CostModel::Host());

  sim.Spawn(RunVerify(&state, &sim, dev2.get(), &db2));
  sim.Run();
  if (!state.verify_done) {
    return Status::Aborted("crash-sweep verification never completed");
  }
  return report;
}

}  // namespace kvcsd::harness
