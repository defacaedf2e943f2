#include "kvcsd/device.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/coding.h"
#include "kvcsd/wire.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Opcodes whose handlers run with a resolved, pinned keyspace. Everything
// else reaching Dispatch's default branch is unknown and must fail
// Unimplemented before any keyspace-id lookup can turn it into NotFound.
bool IsKeyspaceScoped(nvme::Opcode op) {
  switch (op) {
    case nvme::Opcode::kKvStore:
    case nvme::Opcode::kKvDelete:
    case nvme::Opcode::kBulkStore:
    case nvme::Opcode::kCompact:
    case nvme::Opcode::kCompactWithIndexes:
    case nvme::Opcode::kSync:
    case nvme::Opcode::kCompactWait:
    case nvme::Opcode::kSecondaryBuild:
    case nvme::Opcode::kKvRetrieve:
    case nvme::Opcode::kQueryPrimaryRange:
    case nvme::Opcode::kQuerySecondaryRange:
    case nvme::Opcode::kKvSelect:
    case nvme::Opcode::kKvAggregate:
    case nvme::Opcode::kKeyspaceStat:
      return true;
    default:
      return false;
  }
}

}  // namespace

DeviceConfig Device::Prefixed(DeviceConfig config) {
  // One prefix knob for the whole device: push it down to the SSD so the
  // NAND meter and zns.<tag>.* counters carry it too.
  config.zns.stats_prefix = config.stats_prefix;
  return config;
}

Device::Device(sim::Simulation* sim, const DeviceConfig& config,
               nvme::QueueSet* queues)
    : sim_(sim),
      config_(Prefixed(config)),
      stats_view_(&sim->stats(), config_.stats_prefix),
      trk_device_(config_.stats_prefix + "device"),
      trk_nvme_sq_(config_.stats_prefix + "nvme.sq"),
      trk_compaction_(config_.stats_prefix + "compaction"),
      trk_query_(config_.stats_prefix + "query"),
      trk_recovery_(config_.stats_prefix + "recovery"),
      queues_(queues),
      ssd_(sim, config_.zns),
      zone_manager_(&ssd_, config_.zones),
      keyspace_manager_(&ssd_, &zone_manager_),
      cpu_(sim, config_.stats_prefix + "soc", config_.soc_cores,
           {sim::Layer::kSocWait, sim::Layer::kSoc}),
      index_cache_(config_.EffectiveIndexCacheBytes()),
      faults_(config_.zns.faults),
      dispatch_meter_(sim, config_.stats_prefix + "dispatch", 1.0),
      log_device_(sim->log().DeviceId(trk_device_)),
      queue_wait_ns_(&stats_view_.histogram("client.stage.queue_wait_ns")),
      dispatch_ns_(&stats_view_.histogram("device.stage.dispatch_ns")),
      exec_ns_(&stats_view_.histogram("device.stage.exec_ns")) {
  if (faults_ != nullptr) faults_->set_log(&sim_->log());
  // Key "<prefix>device" on purpose: a Device::Restart over the same
  // simulation re-registers and supersedes the powered-off device's gauges.
  telemetry_token_ = sim_->telemetry().AddSource(
      config_.stats_prefix + "device",
      [this](sim::TelemetrySampler::Gauges* out) { CollectTelemetry(out); });
}

Device::~Device() { sim_->telemetry().RemoveSource(telemetry_token_); }

void Device::CollectTelemetry(sim::TelemetrySampler::Gauges* out) const {
  // Gauge names carry the instance prefix (empty in single-device sims,
  // "shard<i>." in fleets); the utilization meters below self-prefix via
  // the names they were constructed with.
  const std::string& p = config_.stats_prefix;
  out->emplace_back(p + "nvme.sq_depth", queues_->sq_depth());
  out->emplace_back(p + "nvme.inflight", queues_->inflight());
  if (queues_->num_queues() > 1) {
    // Per-queue gauges so multi-queue runs can see imbalance; single-queue
    // runs keep the exact legacy gauge set.
    for (std::uint32_t q = 0; q < queues_->num_queues(); ++q) {
      const std::string prefix = p + "nvme.q" + std::to_string(q) + ".";
      out->emplace_back(prefix + "sq_depth", queues_->pair(q)->sq_depth());
      out->emplace_back(prefix + "inflight", queues_->pair(q)->inflight());
    }
  }
  out->emplace_back(p + "device.inflight_cmds", inflight_commands_);
  out->emplace_back(p + "device.compactions_running", compactions_running_);
  out->emplace_back(p + "device.compact.bytes_read",
                    compaction_stats_.bytes_read);
  out->emplace_back(p + "device.compact.bytes_written",
                    compaction_stats_.bytes_written);
  out->emplace_back(p + "device.read_cache.bytes", index_cache_.charge());
  out->emplace_back(p + "device.read_cache.entries", index_cache_.entries());
  out->emplace_back(p + "zns.free_zones", zone_manager_.free_zones());
  // Per-role zone utilization, one pass over the live cluster table.
  struct RoleUsage {
    std::uint64_t zones = 0;
    std::uint64_t bytes = 0;
  };
  std::map<ZoneType, RoleUsage> by_role;
  for (const auto& [id, type] : zone_manager_.LiveClusters()) {
    RoleUsage& usage = by_role[type];
    usage.zones += zone_manager_.cluster_zones(id).size();
    usage.bytes += zone_manager_.ClusterBytes(id);
  }
  for (const auto& [type, usage] : by_role) {
    const std::string role = ZoneTypeName(type);
    out->emplace_back(p + "zns." + role + ".zones", usage.zones);
    out->emplace_back(p + "zns." + role + ".bytes", usage.bytes);
  }
  // A log's bytes are its chain's write pointers, the same extent a
  // replay parses.
  auto chain_bytes = [this](const std::vector<ClusterId>& chain) {
    std::uint64_t bytes = 0;
    for (ClusterId id : chain) bytes += zone_manager_.ClusterBytes(id);
    return bytes;
  };
  std::uint64_t delta_index_bytes_total = 0;
  for (const auto& [id, ks] : keyspace_manager_.all()) {
    const std::string prefix = p + "device.ks." + ks->name + ".";
    out->emplace_back(prefix + "state",
                      static_cast<std::uint64_t>(ks->state));
    out->emplace_back(prefix + "num_kvs", ks->NumKvs());
    out->emplace_back(prefix + "klog_bytes", chain_bytes(ks->klog_clusters));
    out->emplace_back(prefix + "vlog_bytes", chain_bytes(ks->vlog_clusters));
    out->emplace_back(prefix + "buffer_bytes", ks->runtime.buffer.bytes);
    out->emplace_back(prefix + "delta_entries", ks->delta_index.size());
    out->emplace_back(prefix + "delta_live", ks->delta_live);
    out->emplace_back(prefix + "delta_index_bytes", ks->delta_index_bytes);
    delta_index_bytes_total += ks->delta_index_bytes;
  }
  // Aggregate DRAM footprint of every keyspace's delta index (DESIGN.md
  // §12); a host bounds it by issuing kCompact on a COMPACTED keyspace.
  out->emplace_back(p + "device.delta.index_bytes", delta_index_bytes_total);
  // Windowed utilization by activity class (DESIGN.md §14): who is burning
  // the SoC cores, the NAND channels, the PCIe link, and the dispatch core
  // right now. Permille-of-window gauges, see ResourceMeter::AppendGauges.
  cpu_.meter().AppendGauges(out);
  dispatch_meter_.AppendGauges(out);
  ssd_.nand().meter().AppendGauges(out);
  queues_->h2d_meter().AppendGauges(out);
  queues_->d2h_meter().AppendGauges(out);
  out->emplace_back(p + "device.flight.trips",
                    stats().counter_value("device.flight.trips_total"));
}

// ---------------------------------------------------------------------------
// In-band telemetry (DESIGN.md §14)
// ---------------------------------------------------------------------------

nvme::HealthPage Device::BuildHealthPage() const {
  nvme::HealthPage page;
  page.tick = sim_->Now();
  CollectTelemetry(&page.gauges);
  return page;
}

void Device::Start() {
  if (started_) return;
  started_ = true;
  sim_->Spawn(MainLoop());
}

std::unique_ptr<Device> Device::Restart(sim::Simulation* sim,
                                        const DeviceConfig& config,
                                        nvme::QueueSet* queues,
                                        const Device& prior) {
  // Clear the crashed flag (and stale crash hooks/error rules) BEFORE the
  // new device constructs its ZnsSsd, which re-registers a torn-tail hook
  // bound to the new object.
  if (config.zns.faults != nullptr) config.zns.faults->ResetForRestart();
  auto device = std::make_unique<Device>(sim, config, queues);
  device->ssd_.CloneStateFrom(prior.ssd_);
  return device;
}

bool Device::CrashPoint(const char* point) {
  return faults_ != nullptr && faults_->Hit(point);
}

sim::StatsView& Device::stats() { return stats_view_; }
const sim::StatsView& Device::stats() const { return stats_view_; }

sim::Task<void> Device::MainLoop() {
  for (;;) {
    nvme::QueuePair::Incoming incoming = co_await queues_->NextCommand();
    sim::Ledger& ledger = incoming.reply->ledger;
    const Tick dequeued = sim_->Now();
    ledger.Book(sim::Layer::kSqWait, dequeued);
    queue_wait_ns_->Record(ledger[sim::Layer::kSqWait]);
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      sim_->tracer().CompleteSpan(
          sim_->tracer().Track(trk_nvme_sq_), "queue_wait",
          dequeued - ledger[sim::Layer::kSqWait], dequeued,
          {{"cmd_id", std::to_string(incoming.cmd_id)},
           {"op", nvme::OpcodeName(incoming.opcode)},
           {"q", std::to_string(incoming.queue_id)}});
    }
    // Every command pays the SPDK-ish userspace dispatch cost once.
    // Metered as wall time on a capacity-1 "dispatch" resource: the single
    // main loop is the serial bottleneck (ROADMAP item 1), and the meter
    // includes any wait for a free SoC core, so util.dispatch.dispatch
    // pins near 1000 permille exactly when command pop rate saturates.
    // The loop keeps no ledger: the command books the whole pop -> handler
    // start span as dispatch.
    co_await cpu_.Compute(config_.costs.syscall_overhead,
                          sim::Activity::kDispatch);
    dispatch_meter_.Add(sim::Activity::kDispatch, dequeued, sim_->Now());
    sim_->Spawn(HandleCommand(std::move(incoming)));
  }
}

sim::Task<void> Device::HandleCommand(nvme::QueuePair::Incoming incoming) {
  // Everything the handler awaits books into the command's ledger.
  sim::Ledger& ledger = incoming.reply->ledger;
  co_await sim::BindLedger(&ledger);
  if (faults_ != nullptr && faults_->crashed()) {
    // Power is gone: fail fast without touching device state. Still close
    // the command's flow so the trace has no dangling arrows.
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      const std::uint32_t track = sim_->tracer().Track(trk_device_);
      const Tick now = sim_->Now();
      sim_->tracer().CompleteSpan(
          track, "powered_off", now, now,
          {{"cmd_id", std::to_string(incoming.cmd_id)}});
      sim_->tracer().FlowEnd(track, "cmd", incoming.cmd_id, now);
    }
    nvme::Completion dead;
    dead.status = Status::IoError("device powered off");
    co_await queues_->Complete(std::move(incoming), std::move(dead));
    co_return;
  }
  const nvme::Opcode op = incoming.command.opcode;
  const Tick begin = sim_->Now();
  ledger.Book(sim::Layer::kDispatch, begin);
  dispatch_ns_->Record(ledger[sim::Layer::kDispatch]);
  ++inflight_commands_;
  nvme::Completion completion;
  {
    // Span covers the device-side processing; the completion DMA below is
    // on the nvme track. The flow arrow from the client's submit span
    // terminates here ("bp":"e" binds it to this enclosing span).
    sim::TraceSpan span(sim_, trk_device_, nvme::OpcodeName(op));
    span.Arg("cmd_id", incoming.cmd_id);
    span.Arg("keyspace_id", incoming.command.keyspace_id);
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      sim_->tracer().FlowEnd(sim_->tracer().Track(trk_device_), "cmd",
                             incoming.cmd_id, begin);
    }
    completion = co_await Dispatch(incoming.command);
  }
  const Tick exec = sim_->Now() - begin;
  exec_ns_->Record(exec);
  --inflight_commands_;
  CommandSeries& series = cmd_series_.Get(op, [this](nvme::Opcode o) {
    const std::string name = std::string("device.cmd.") + nvme::OpcodeName(o);
    const char* cls = nvme::OpcodeLatencyClass(o);
    return CommandSeries{
        &stats().counter(name),
        cls ? &stats().histogram(std::string("device.cmd.") + cls + "_ns")
            : nullptr,
        nullptr};
  });
  series.count->Increment();
  if (series.latency != nullptr) series.latency->Record(exec);
  if (!completion.status.ok()) {
    // Per-opcode error breakdown alongside the aggregate, so a workload
    // can tell rejected deletes from failed compactions at a glance. Both
    // counters appear with the first error.
    if (cmd_errors_ == nullptr) {
      cmd_errors_ = &stats().counter("device.cmd.errors");
    }
    cmd_errors_->Increment();
    if (series.errors == nullptr) {
      series.errors = &stats().counter(std::string("device.cmd.") +
                                       nvme::OpcodeName(op) + ".errors");
    }
    series.errors->Increment();
  }
  if (faults_ != nullptr && faults_->crashed()) {
    // The power cut landed mid-command; whatever Dispatch claims, the
    // host must treat the operation as failed.
    completion = nvme::Completion{};
    completion.status = Status::IoError("device powered off (in flight)");
  }
  // One command event in the simulation's ring, recorded before the
  // completion DMA so a breach dump never misses its own trigger.
  sim::Log::Command event;
  event.cmd_id = incoming.cmd_id;
  event.op = nvme::OpcodeName(op);
  event.queue_id = incoming.queue_id;
  event.device = log_device_;
  event.exec_ns = exec;
  event.status = completion.status.code();
  event.ledger = ledger;
  sim::Log& log = sim_->log();
  log.Record(event);
  if (const char* reason = log.BreachReason(event)) {
    stats().counter("device.flight.trips_total").Increment();
    log.Dump(reason);
  }
  co_await queues_->Complete(std::move(incoming), std::move(completion));
}

sim::Task<nvme::Completion> Device::Dispatch(nvme::Command& cmd) {
  nvme::Completion out;
  switch (cmd.opcode) {
    case nvme::Opcode::kKeyspaceCreate: {
      auto ks = keyspace_manager_.Create(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      const std::uint64_t id = (*ks)->id;
      out.keyspace_id = id;
      out.status = co_await keyspace_manager_.Persist();
      if (!out.status.ok()) {
        // A create that did not persist did not happen: drop the entry as
        // kKeyspaceDrop would (a command that opened it meanwhile defers
        // the drop), so an open finds nothing and a retry can create it.
        // The create's own error is what the host gets.
        auto created = keyspace_manager_.FindById(id);
        if (created.ok()) {
          const Status dropped = co_await DropKeyspace(*created);
          (void)dropped;
        }
      }
      break;
    }
    case nvme::Opcode::kKeyspaceOpen: {
      auto ks = keyspace_manager_.Find(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      out.keyspace_id = (*ks)->id;
      break;
    }
    case nvme::Opcode::kKeyspaceDrop: {
      auto ks = keyspace_manager_.Find(cmd.name);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      out.status = co_await DropKeyspace(*ks);
      break;
    }
    case nvme::Opcode::kGetLogPage: {
      // Admin pull of the device health page (DESIGN.md §14). Encoded
      // inline at the current tick, so every gauge is from one instant.
      co_await cpu_.Compute(config_.costs.kv_op_fixed);
      out.value = nvme::EncodeHealthPage(BuildHealthPage());
      break;
    }
    default: {
      if (!IsKeyspaceScoped(cmd.opcode)) {
        // Unknown opcode: Unimplemented must win over whatever a
        // keyspace-id lookup would report (no silent OK, no NotFound
        // masking).
        out.status = Status::Unimplemented(
            "unhandled opcode " +
            std::to_string(static_cast<unsigned>(cmd.opcode)));
        break;
      }
      // Keyspace-scoped command: resolve and pin the keyspace BEFORE the
      // first suspension, so a concurrent drop defers until the handler
      // coroutine is done with the raw pointer.
      auto ks = keyspace_manager_.FindById(cmd.keyspace_id);
      if (!ks.ok()) {
        out.status = ks.status();
        break;
      }
      Keyspace* keyspace = *ks;
      ++keyspace->inflight;
      const Tick ks_begin = sim_->Now();
      out = co_await DispatchKeyspaceCommand(cmd, keyspace);
      // Record while still pinned: the name is safe to read until Unpin
      // lets a deferred drop free the keyspace.
      if (const char* cls = nvme::OpcodeLatencyClass(cmd.opcode)) {
        stats()
            .histogram("device.ks." + keyspace->name + "." + cls + "_ns")
            .Record(sim_->Now() - ks_begin);
      }
      co_await Unpin(keyspace);
      break;
    }
  }
  co_return out;
}

sim::Task<nvme::Completion> Device::DispatchKeyspaceCommand(nvme::Command& cmd,
                                                            Keyspace* ks) {
  nvme::Completion out;
  switch (cmd.opcode) {
    case nvme::Opcode::kKvStore:
      out.status = co_await DoMutate(ks, std::move(cmd.key),
                                     std::move(cmd.value),
                                     /*tombstone=*/false);
      break;
    case nvme::Opcode::kKvDelete: {
      std::string no_value;  // named: see the prvalue pitfall in task.h
      out.status = co_await DoMutate(ks, std::move(cmd.key),
                                     std::move(no_value), /*tombstone=*/true);
      break;
    }
    case nvme::Opcode::kBulkStore:
      out.status = co_await DoBulkPut(ks, cmd.value);
      break;
    case nvme::Opcode::kCompact:
    case nvme::Opcode::kCompactWithIndexes: {
      if (cmd.opcode == nvme::Opcode::kCompact &&
          ks->state == KeyspaceState::kCompacted) {
        // Re-compaction folds the delta log into the existing sorted run
        // incrementally (DESIGN.md §12); with no delta there is nothing
        // to fold.
        if (ks->delta_index.empty()) {
          out.status = Status::Ok();
          break;
        }
      } else if (ks->state != KeyspaceState::kWritable &&
                 ks->state != KeyspaceState::kEmpty) {
        out.status = Status::FailedPrecondition(
            "compaction requires a WRITABLE keyspace (state " +
            std::string(KeyspaceStateName(ks->state)) + ")");
        break;
      }
      // Deferred + offloaded: runs asynchronously on the device; the
      // command completes immediately (paper §V "Compaction"). The fused
      // variant also builds the requested secondary indexes in the same
      // pass (§V future work). The (RE)COMPACTING state (not the inflight
      // pin, which this command drops on completion) is what holds off a
      // concurrent drop.
      std::vector<nvme::SecondaryIndexSpec> specs;
      if (cmd.opcode == nvme::Opcode::kCompactWithIndexes) {
        specs = std::move(cmd.sidx_list);
      }
      SpawnCompaction(ks, std::move(specs), cmd.cmd_id);
      out.status = Status::Ok();
      break;
    }
    case nvme::Opcode::kSync:
      out.status = co_await DoSync(ks);
      break;
    case nvme::Opcode::kCompactWait:
      while (ks->compacting()) {
        co_await sim::BookWait(sim_, sim::Layer::kKeyspaceWait,
                               ks->runtime.compaction_done.Wait());
      }
      out.status = ks->runtime.compaction_status;
      break;
    case nvme::Opcode::kSecondaryBuild:
      out.status = co_await BuildSecondaryIndex(ks, cmd.sidx);
      break;
    case nvme::Opcode::kKvRetrieve: {
      auto value = co_await QueryPoint(ks, cmd.key);
      out.status = value.status();
      if (value.ok()) out.value = std::move(*value);
      break;
    }
    case nvme::Opcode::kQueryPrimaryRange:
      out.status = co_await QueryPrimaryRange(ks, cmd.key, cmd.key_end,
                                              cmd.limit, &out.results);
      out.count = out.results.size();
      break;
    case nvme::Opcode::kQuerySecondaryRange:
      out.status = co_await QuerySecondaryRange(
          ks, cmd.sidx.name, cmd.key, cmd.key_end, cmd.limit, &out.results);
      out.count = out.results.size();
      break;
    case nvme::Opcode::kKvSelect:
    case nvme::Opcode::kKvAggregate:
      out.status = co_await QueryPushdown(ks, cmd, &out);
      break;
    case nvme::Opcode::kKeyspaceStat:
      out.count = ks->NumKvs();
      out.value = std::string(KeyspaceStateName(ks->state));
      out.job_status = ks->runtime.compaction_status;
      out.status = Status::Ok();
      break;
    default:
      // Unreachable: Dispatch only routes IsKeyspaceScoped opcodes here.
      // Still no silent OK if the two ever fall out of step.
      out.status = Status::Unimplemented(
          "unhandled opcode " +
          std::to_string(static_cast<unsigned>(cmd.opcode)));
      break;
  }
  co_return out;
}

sim::Task<void> Device::Unpin(Keyspace* ks) {
  --ks->inflight;
  co_await MaybeFinishPendingDelete(ks);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

sim::Task<Result<std::uint64_t>> Device::AppendToChain(
    std::vector<ClusterId>* chain, ZoneType type,
    std::span<const std::byte> data, sim::Activity act) {
  if (!chain->empty()) {
    auto addr = co_await zone_manager_.Append(chain->back(), data, act);
    if (addr.ok() || addr.status().code() != StatusCode::kOutOfSpace) {
      co_return addr;
    }
  }
  auto cluster = zone_manager_.AllocateCluster(type);
  if (!cluster.ok()) co_return cluster.status();
  chain->push_back(*cluster);
  co_return co_await zone_manager_.Append(*cluster, data, act);
}

namespace {

// Admission for PUT/DELETE/bulk PUT: WRITABLE and COMPACTED (delta mode)
// accept mutations; during (re)compaction the compactor owns the logs.
Status CheckMutable(const Keyspace& ks) {
  switch (ks.state) {
    case KeyspaceState::kEmpty:
    case KeyspaceState::kWritable:
    case KeyspaceState::kCompacted:  // delta mode: mutations land in a
                                     // fresh KLOG/VLOG log beside the run
      return Status::Ok();
    case KeyspaceState::kCompacting:
    case KeyspaceState::kRecompacting:
      // kBusy is retryable: the host retries once the keyspace settles.
      return Status::Busy("keyspace is compacting; retry");
  }
  return Status::FailedPrecondition("keyspace not writable");
}

}  // namespace

void ApplyMutation(Keyspace* ks, const std::string& key,
                   const DeltaEntry& record) {
  if (ks->state != KeyspaceState::kCompacted) {
    ++ks->log_records;
    return;
  }
  DeltaEntry& entry = ks->delta_index[key];
  if (entry.seq == 0) {
    // Fresh key: charge the node and the key bytes.
    ks->delta_index_bytes += kDeltaEntryOverhead + key.size();
  } else if (record.seq < entry.seq) {
    // Newest seq wins, whatever the arrival order: pipelined flushes land
    // KLOG batches out of admission order, so a replay can meet a record
    // older than the entry it would replace.
    return;
  } else {
    // Overwrite: node + key stay, the old inline value is released.
    ks->delta_index_bytes -= entry.value.size();
    if (!entry.tombstone) --ks->delta_live;
  }
  ks->delta_index_bytes += record.value.size();
  if (!record.tombstone) ++ks->delta_live;
  entry = record;
}

sim::Task<Status> Device::AdmitMutation(Keyspace* ks) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(*ks));
  co_await sim::BookWait(sim_, sim::Layer::kKeyspaceWait,
                         ks->runtime.write_lock.Acquire());
  // Re-check under the lock: a re-compaction can start while this command
  // waits for the lock, and a mutation admitted past its delta snapshot
  // would be silently dropped by the fold's commit.
  if (Status admit = CheckMutable(*ks); !admit.ok()) {
    ks->runtime.write_lock.Release();
    co_return admit;
  }
  co_return Status::Ok();
}

void Device::BufferMutation(Keyspace* ks, std::string key, std::string value,
                            bool tombstone) {
  WriteBuffer& buffer = ks->runtime.buffer;
  buffer.bytes += key.size() + value.size();
  // Before its flush lands, a delta entry's value rides inline.
  DeltaEntry record{.seq = ks->next_seq++,
                    .vlen = static_cast<std::uint32_t>(value.size()),
                    .tombstone = tombstone,
                    .has_value = !tombstone,
                    .value = std::move(value)};
  ApplyMutation(ks, key, record);
  buffer.entries.push_back(KeyspaceRuntime::WriteEntry{
      std::move(key), std::move(record.value), record.seq, tombstone});
}

// A DELETE appends a tombstone record to the (delta) log and acknowledges
// whether or not the key exists — existence would cost an index lookup on
// the write path. Visibility is immediate (the delta index/write buffer
// shadows the run); durability follows the same flush + Sync contract as
// PUT.
sim::Task<Status> Device::DoMutate(Keyspace* ks, std::string key,
                                   std::string value, bool tombstone) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AdmitMutation(ks));
  co_await cpu_.Compute(config_.costs.kv_op_fixed, sim::Activity::kHostWrite);
  BufferMutation(ks, std::move(key), std::move(value), tombstone);
  Status s = Status::Ok();
  if (ks->runtime.buffer.bytes >= config_.write_buffer_bytes) {
    s = co_await FlushBuffer(ks);
  }
  ks->runtime.write_lock.Release();
  co_return s;
}

sim::Task<Status> Device::DoBulkPut(Keyspace* ks, const std::string& frame) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AdmitMutation(ks));

  // Unpack the 128 KB bulk frame. The frame transfer is cheap, but each
  // record still costs per-record handling on the weak SoC cores — this is
  // what bounds the prototype's ingest rate; bulk puts win over singles by
  // amortizing the command/DMA overhead, not the record handling (§V).
  co_await cpu_.ComputeBytes(frame.size(), config_.costs.memcpy_bytes_per_sec,
                             sim::Activity::kHostWrite);

  // The whole frame is parsed before any record is buffered, so a
  // malformed frame fails the command without a side effect.
  std::vector<std::pair<Slice, Slice>> records;
  Slice in(frame);
  while (!in.empty()) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      co_await cpu_.Compute(records.size() * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
      ks->runtime.write_lock.Release();
      co_return Status::InvalidArgument("malformed bulk-put frame");
    }
    records.emplace_back(key, value);
  }

  Status s = Status::Ok();
  std::uint32_t records_uncharged = 0;
  for (const auto& [key, value] : records) {
    ++records_uncharged;
    BufferMutation(ks, key.ToString(), value.ToString(), /*tombstone=*/false);
    if (records_uncharged >= 512) {
      co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
      records_uncharged = 0;
    }
    if (ks->runtime.buffer.bytes >= config_.write_buffer_bytes) {
      s = co_await FlushBuffer(ks);
      if (!s.ok()) break;
    }
  }
  if (records_uncharged > 0) {
    co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
  }
  ks->runtime.write_lock.Release();
  co_return s;
}

// Kicks off the timed flush I/O. The buffer swap is synchronous (caller
// holds the write lock); the NAND work pipelines with up to
// kMaxInflightFlushes batches in flight, spread over the cluster's zones
// by the zone manager's rotation.
sim::Task<Status> Device::FlushBuffer(Keyspace* ks) {
  KeyspaceRuntime& rt = ks->runtime;
  if (rt.buffer.entries.empty()) co_return Status::Ok();
  WriteBuffer batch = std::exchange(rt.buffer, WriteBuffer{});

  // Backpressure: the flushes in flight hold the NAND.
  co_await sim::BookWait(sim_, sim::Layer::kNandWait,
                         rt.flush_slots.Acquire());
  rt.flushes_inflight.Add(1);
  // Pin before spawning: the detached FlushIo holds the raw pointer past
  // this command's lifetime, so a drop must defer until it lands.
  ++ks->inflight;
  sim_->Spawn(FlushIo(ks, std::move(batch)));
  co_return Status::Ok();
}

sim::Task<void> Device::FlushIo(Keyspace* ks, WriteBuffer batch) {
  Status result = Status::Ok();

  if (CrashPoint("flush.before_vlog")) {
    result = Status::IoError("simulated power loss (before VLOG append)");
  }

  if (result.ok()) {
    // Values: one contiguous VLOG record. Tombstones carry no value, so a
    // tombstone-only batch skips the VLOG append entirely.
    std::string values;
    values.reserve(batch.bytes);
    for (const auto& e : batch.entries) values += e.value;
    co_await cpu_.ComputeBytes(values.size(),
                               config_.costs.memcpy_bytes_per_sec,
                               sim::Activity::kHostWrite);
    co_await cpu_.Compute(config_.costs.io_path_overhead,
                          sim::Activity::kHostWrite);
    Result<std::uint64_t> vaddr{std::uint64_t{0}};
    if (!values.empty()) {
      vaddr = co_await AppendToChain(
          &ks->vlog_clusters, ZoneType::kVlog,
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(values.data()),
              values.size()),
          sim::Activity::kHostWrite);
    }
    if (vaddr.ok() && CrashPoint("flush.between_logs")) {
      // Values landed, keys did not: the VLOG record is unreachable
      // garbage recovery must not resurrect (nothing references it).
      result = Status::IoError("simulated power loss (between log appends)");
    } else if (vaddr.ok()) {
      // Keys + value pointers: one framed KLOG record, so a torn append
      // is detectably incomplete at recovery.
      std::string payload;
      payload.reserve(batch.bytes / 2 + batch.entries.size() * 12);
      std::uint64_t offset = 0;
      for (const auto& e : batch.entries) {
        wire::AppendKlogEntry(&payload, e.key,
                              e.tombstone ? 0 : *vaddr + offset,
                              static_cast<std::uint32_t>(e.value.size()),
                              e.seq, e.tombstone);
        offset += e.value.size();
      }
      std::string klog;
      klog.reserve(payload.size() + 16);
      wire::AppendKlogFrame(&klog, Slice(payload));
      co_await cpu_.ComputeBytes(klog.size(),
                                 config_.costs.memcpy_bytes_per_sec,
                                 sim::Activity::kHostWrite);
      co_await cpu_.Compute(config_.costs.io_path_overhead,
                            sim::Activity::kHostWrite);
      auto kaddr = co_await AppendToChain(
          &ks->klog_clusters, ZoneType::kKlog,
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(klog.data()), klog.size()),
          sim::Activity::kHostWrite);
      if (kaddr.ok()) {
        // Both logs durable; a crash here loses only the acknowledgement.
        CrashPoint("flush.after_klog");
      } else {
        result = kaddr.status();
      }
    } else {
      result = vaddr.status();
    }
  }

  KeyspaceRuntime& rt = ks->runtime;
  if (!result.ok()) {
    if (rt.flush_error.ok()) rt.flush_error = result;
    // The batch never became durable, but its entries are already
    // applied to the keyspace's counts and still owed to the client.
    // Re-queue it in front of anything written since (this block has no
    // suspension point, so no put can interleave with the splice) — a
    // retried Sync then re-flushes the same data instead of persisting an
    // empty buffer and falsely reporting it durable. A VLOG record the
    // failure stranded without KLOG entries is unreferenced garbage;
    // compaction and recovery never resurrect it.
    batch.bytes += rt.buffer.bytes;
    batch.entries.insert(batch.entries.end(),
                         std::make_move_iterator(rt.buffer.entries.begin()),
                         std::make_move_iterator(rt.buffer.entries.end()));
    rt.buffer = std::move(batch);
  }
  rt.flush_slots.Release();
  rt.flushes_inflight.Done();
  co_await Unpin(ks);
}

sim::Task<Status> Device::DrainWrites(Keyspace* ks) {
  KeyspaceRuntime& rt = ks->runtime;
  co_await rt.write_lock.Acquire();
  Status s = co_await FlushBuffer(ks);
  rt.write_lock.Release();
  KVCSD_CO_RETURN_IF_ERROR(s);
  co_await rt.flushes_inflight.Wait();
  // Surface a flush failure once, then clear it: the failed batch was
  // re-queued into the write buffer by FlushIo, so a retry re-flushes the
  // data for real instead of failing forever on a stale latched error (or,
  // worse, persisting an empty buffer).
  co_return std::exchange(rt.flush_error, Status::Ok());
}

// Explicit "fsync" (paper §VI): persists whatever PUTs are still sitting
// in the keyspace's DRAM write buffer, waits for the log I/O to land, and
// commits the cluster references to the metadata zone — only then is the
// data guaranteed to survive a power cut.
sim::Task<Status> Device::DoSync(Keyspace* ks) {
  if (ks->compacting()) {
    // The compactor owns the logs and drained every flush before taking
    // over; mutations have been rejected (kBusy) since, so there is
    // nothing buffered to persist.
    co_return Status::Ok();
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks));
  if (CrashPoint("sync.before_persist")) {
    co_return Status::IoError("simulated power loss (before sync persist)");
  }
  co_return co_await keyspace_manager_.Persist();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

sim::Task<Status> Device::DropKeyspace(Keyspace* ks) {
  if (ks->compacting() || ks->inflight > 0) {
    // Deferred deletion: the compactor or the pinned handlers finish
    // first (paper: "deletion may be deferred due to on-going
    // compaction"). The tombstone must be durable BEFORE the ack — an
    // acknowledged drop has to stay dropped even if power dies before
    // the deferred FinishDrop runs, so recovery completes it from the
    // persisted pending_delete flag. ks may already be freed when
    // Persist returns: the compaction can finish during the await and
    // run the deferred drop itself.
    ks->pending_delete = true;
    co_return co_await keyspace_manager_.Persist();
  }
  co_return co_await FinishDrop(ks);
}

sim::Task<Status> Device::FinishDrop(Keyspace* ks) {
  // Snapshot what the drop needs, then remove the table entry before the
  // first suspension: from here no command can find — let alone pin — the
  // dying keyspace, so freeing it (runtime state included) is safe.
  const std::uint64_t id = ks->id;
  std::vector<ClusterId> doomed = ks->Clusters();
  KVCSD_CO_RETURN_IF_ERROR(keyspace_manager_.Erase(id));  // frees *ks
  index_cache_.EraseKeyspace(id);

  if (CrashPoint("drop.before_persist")) {
    co_return Status::IoError("simulated power loss (before drop persist)");
  }
  // Commit point: once the snapshot without the keyspace is durable, the
  // clusters are garbage whether or not the release below succeeds —
  // recovery reclaims whatever a crash or failed reset leaves orphaned.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  co_await zone_manager_.ReleaseBestEffort(std::move(doomed));
  co_return Status::Ok();
}

sim::Task<void> Device::MaybeFinishPendingDelete(Keyspace* ks) {
  if (!ks->pending_delete || ks->inflight > 0 || ks->compacting()) co_return;
  // Clear before the first await so concurrent callers cannot double-drop.
  ks->pending_delete = false;
  Status s = co_await FinishDrop(ks);
  (void)s;  // deferred drops have no command to answer to
}

}  // namespace kvcsd::device
