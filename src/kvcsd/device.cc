#include "kvcsd/device.h"

#include <algorithm>

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
      cpu_(sim, config_.stats_prefix + "soc", config_.soc_cores),
      index_cache_(config_.EffectiveIndexCacheBytes()),
      faults_(config_.zns.faults),
      dispatch_meter_(sim, config_.stats_prefix + "dispatch", 1.0),
      flight_(std::make_shared<FlightRecorder>(config_.flight)) {
  if (faults_ != nullptr) faults_->set_log(&sim_->log());
  // Key "<prefix>device" on purpose: a Device::Restart over the same
  // simulation re-registers and supersedes the powered-off device's gauges.
  telemetry_token_ = sim_->telemetry().AddSource(
      config_.stats_prefix + "device",
      [this](sim::TelemetrySampler::Gauges* out) { CollectTelemetry(out); });
  flight_->set_snapshot_provider(
      [this](sim::TelemetrySampler::Gauges* out) { CollectTelemetry(out); });
  if (faults_ != nullptr && config_.flight.dump_on_crash) {
    // Dump the ring the instant power dies, before any state is torn
    // down — the hook list is cleared by the injector after the crash.
    flight_crash_token_ = faults_->AddCrashHook([this] {
      flight_->Dump("crash", sim_->Now(), faults_->crash_point());
    });
  }
}

Device::~Device() {
  sim_->telemetry().RemoveSource(telemetry_token_);
  if (faults_ != nullptr && flight_crash_token_ != 0) {
    faults_->RemoveCrashHook(flight_crash_token_);
  }
}

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
  std::uint64_t delta_index_bytes_total = 0;
  for (const auto& [id, ks] : keyspace_manager_.all()) {
    const std::string prefix = p + "device.ks." + ks->name + ".";
    out->emplace_back(prefix + "state",
                      static_cast<std::uint64_t>(ks->state));
    out->emplace_back(prefix + "num_kvs", ks->num_kvs);
    out->emplace_back(prefix + "klog_bytes", ks->klog_bytes);
    out->emplace_back(prefix + "vlog_bytes", ks->vlog_bytes);
    auto it = buffers_.find(id);
    out->emplace_back(prefix + "buffer_bytes",
                      it == buffers_.end() ? 0 : it->second.bytes);
    out->emplace_back(prefix + "delta_entries", ks->delta_index.size());
    out->emplace_back(prefix + "delta_live", ks->delta_live);
    out->emplace_back(prefix + "delta_index_bytes", ks->delta_index_bytes);
    delta_index_bytes_total += ks->delta_index_bytes;
  }
  // Aggregate DRAM footprint of every keyspace's delta index — the series
  // the delta_fold_watermark_bytes knob bounds (DESIGN.md §12).
  out->emplace_back(p + "device.delta.index_bytes", delta_index_bytes_total);
  // Windowed utilization by activity class (DESIGN.md §14): who is burning
  // the SoC cores, the NAND channels, the PCIe link, and the dispatch core
  // right now. Permille-of-window gauges, see ResourceMeter::AppendGauges.
  cpu_.meter().AppendGauges(out);
  dispatch_meter_.AppendGauges(out);
  ssd_.nand().meter().AppendGauges(out);
  queues_->h2d_meter().AppendGauges(out);
  queues_->d2h_meter().AppendGauges(out);
  out->emplace_back(p + "device.flight.trips", flight_->trips());
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

nvme::StatsPage Device::BuildStatsPage() const {
  nvme::StatsPage page;
  page.tick = sim_->Now();
  // Device-owned series only: the host can already see its own client.*
  // numbers, and pulling them back over the wire would just be noise.
  // device.stage.* histograms are excluded because the pull command itself
  // records into them mid-dispatch — with them, a page could never equal a
  // same-tick host snapshot, and the acceptance test depends on exactly
  // that equality.
  // Names in the page are device-local (prefix stripped): the host decodes
  // the same series whether the device runs alone or as shard N of a fleet.
  const std::string dev = config_.stats_prefix + "device.";
  const std::string stage = config_.stats_prefix + "device.stage.";
  const std::size_t strip = config_.stats_prefix.size();
  for (const auto& [name, counter] : stats_view_.base().counters()) {
    if (name.rfind(dev, 0) == 0) {
      page.counters.emplace_back(name.substr(strip), counter.value());
    }
  }
  for (const auto& [name, hist] : stats_view_.base().histograms()) {
    if (name.rfind(dev, 0) == 0 && name.rfind(stage, 0) != 0) {
      page.histograms.emplace_back(name.substr(strip), hist.Summary());
    }
  }
  return page;
}

std::string Device::HealthJson() const {
  const nvme::HealthPage page = BuildHealthPage();
  std::string json = "{\n  \"tick\": " + std::to_string(page.tick);
  json += ",\n  \"gauges\": {";
  bool first = true;
  for (const auto& [name, value] : page.gauges) {
    if (!first) json += ",";
    first = false;
    json += "\n    \"" + name + "\": " + std::to_string(value);
  }
  if (!first) json += "\n  ";
  json += "}\n}\n";
  return json;
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
  // The flight recorder survives the power cycle (like sim::Log): the
  // pre-crash command history stays readable from the restarted device.
  // Re-bind the snapshot provider so a post-restart dump reflects the live
  // device, not the powered-off one.
  device->flight_ = prior.flight_;
  Device* raw = device.get();
  device->flight_->set_snapshot_provider(
      [raw](sim::TelemetrySampler::Gauges* out) { raw->CollectTelemetry(out); });
  return device;
}

sim::Task<Status> Device::RecoverMetadata() {
  auto recovered = co_await keyspace_manager_.Recover();
  co_return recovered.status();
}

bool Device::CrashPoint(const char* point) {
  return faults_ != nullptr && faults_->Hit(point);
}

sim::StatsView& Device::stats() { return stats_view_; }
const sim::StatsView& Device::stats() const { return stats_view_; }

sim::Semaphore* Device::WriteLock(std::uint64_t keyspace_id) {
  auto& lock = write_locks_[keyspace_id];
  if (!lock) lock = std::make_unique<sim::Semaphore>(sim_, 1);
  return lock.get();
}

sim::Event* Device::CompactionDone(std::uint64_t keyspace_id) {
  auto& event = compaction_done_[keyspace_id];
  if (!event) event = std::make_unique<sim::Event>(sim_);
  return event.get();
}

sim::Event* Device::ReadersIdle(std::uint64_t keyspace_id) {
  auto& event = readers_idle_[keyspace_id];
  if (!event) event = std::make_unique<sim::Event>(sim_);
  return event.get();
}

sim::Task<void> Device::MainLoop() {
  for (;;) {
    nvme::QueuePair::Incoming incoming = co_await queues_->NextCommand();
    incoming.dequeue_tick = sim_->Now();
    stats()
        .histogram("client.stage.queue_wait_ns")
        .Record(incoming.dequeue_tick - incoming.enqueue_tick);
    if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
      sim_->tracer().CompleteSpan(
          sim_->tracer().Track(trk_nvme_sq_), "queue_wait",
          incoming.enqueue_tick,
          incoming.dequeue_tick,
          {{"cmd_id", std::to_string(incoming.cmd_id)},
           {"op", nvme::OpcodeName(incoming.opcode)},
           {"q", std::to_string(incoming.queue_id)}});
    }
    // Every command pays the SPDK-ish userspace dispatch cost once.
    // Metered as wall time on a capacity-1 "dispatch" resource: the single
    // main loop is the serial bottleneck (ROADMAP item 1), and the meter
    // includes any wait for a free SoC core, so util.dispatch.dispatch
    // pins near 1000 permille exactly when command pop rate saturates.
    const Tick dispatch_begin = sim_->Now();
    co_await cpu_.Compute(config_.costs.syscall_overhead,
                          sim::Activity::kDispatch);
    dispatch_meter_.Add(sim::Activity::kDispatch,
                        sim_->Now() - dispatch_begin);
    sim_->Spawn(HandleCommand(std::move(incoming)));
  }
}

sim::Task<void> Device::HandleCommand(nvme::QueuePair::Incoming incoming) {
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
  stats()
      .histogram("device.stage.dispatch_ns")
      .Record(begin - incoming.dequeue_tick);
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
  stats().histogram("device.stage.exec_ns").Record(sim_->Now() - begin);
  --inflight_commands_;
  stats()
      .counter(std::string("device.cmd.") + nvme::OpcodeName(op))
      .Increment();
  if (const char* cls = nvme::OpcodeLatencyClass(op)) {
    stats()
        .histogram(std::string("device.cmd.") + cls + "_ns")
        .Record(sim_->Now() - begin);
  }
  if (!completion.status.ok()) {
    stats().counter("device.cmd.errors").Increment();
    // Per-opcode error breakdown alongside the aggregate, so a workload
    // can tell rejected deletes from failed compactions at a glance.
    stats()
        .counter(std::string("device.cmd.") + nvme::OpcodeName(op) + ".errors")
        .Increment();
  }
  if (faults_ != nullptr && faults_->crashed()) {
    // The power cut landed mid-command; whatever Dispatch claims, the
    // host must treat the operation as failed.
    completion = nvme::Completion{};
    completion.status = Status::IoError("device powered off (in flight)");
  }
  // Flight recorder: one summary per completed command, recorded before
  // the completion DMA so a breach dump never misses its own trigger.
  FlightRecorder::Entry fe;
  fe.cmd_id = incoming.cmd_id;
  fe.opcode = op;
  fe.queue_id = incoming.queue_id;
  fe.tick = sim_->Now();
  fe.queue_wait_ns = incoming.dequeue_tick - incoming.enqueue_tick;
  fe.dispatch_ns = begin - incoming.dequeue_tick;
  fe.exec_ns = sim_->Now() - begin;
  fe.status = completion.status.code();
  flight_->Record(fe);
  if (const char* reason = flight_->BreachReason(fe)) {
    stats().counter("device.flight.trips_total").Increment();
    flight_->Dump(reason, sim_->Now());
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
      out.keyspace_id = (*ks)->id;
      out.status = co_await keyspace_manager_.Persist();
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
      // Admin pull of a device log page (DESIGN.md §14). Encoded inline at
      // the current tick, so every value in the page is from one instant —
      // a host-side Stats snapshot taken at the same tick decodes equal.
      co_await cpu_.Compute(config_.costs.kv_op_fixed);
      switch (cmd.log_page) {
        case nvme::LogPageId::kHealth:
          out.value = nvme::EncodeHealthPage(BuildHealthPage());
          break;
        case nvme::LogPageId::kStats:
          out.value = nvme::EncodeStatsPage(BuildStatsPage());
          break;
        default:
          out.status = Status::InvalidArgument(
              "unknown log page " +
              std::to_string(static_cast<unsigned>(cmd.log_page)));
          break;
      }
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
      out.status = co_await DoPut(ks, std::move(cmd.key),
                                  std::move(cmd.value));
      break;
    case nvme::Opcode::kKvDelete:
      out.status = co_await DoDelete(ks, std::move(cmd.key));
      break;
    case nvme::Opcode::kBulkStore:
      out.status = co_await DoBulkPut(ks, cmd.value);
      break;
    case nvme::Opcode::kCompact:
    case nvme::Opcode::kCompactWithIndexes: {
      if (cmd.opcode == nvme::Opcode::kCompact &&
          ks->state == KeyspaceState::kCompacted) {
        // Re-compaction: fold the delta log into the existing sorted run
        // incrementally (DESIGN.md §12) instead of re-sorting everything.
        if (ks->delta_index.empty()) {
          out.status = Status::Ok();  // no delta: nothing to fold
          break;
        }
        ks->state = KeyspaceState::kRecompacting;
        CompactionDone(ks->id)->Reset();
        if (sim_->tracer().enabled() && cmd.cmd_id != 0) {
          sim_->tracer().FlowBegin(sim_->tracer().Track(trk_device_),
                                   "compact", cmd.cmd_id, sim_->Now());
        }
        sim_->Spawn([](Device* device, Keyspace* target,
                       std::uint64_t trigger) -> sim::Task<void> {
          Status s = co_await device->RecompactKeyspace(target, trigger);
          (void)s;  // failure rolls back to COMPACTED; surfaced via Stat
        }(this, ks, cmd.cmd_id));
        out.status = Status::Ok();
        break;
      }
      if (ks->state != KeyspaceState::kWritable &&
          ks->state != KeyspaceState::kEmpty) {
        out.status = Status::FailedPrecondition(
            "compaction requires a WRITABLE keyspace (state " +
            std::string(KeyspaceStateName(ks->state)) + ")");
        break;
      }
      ks->state = KeyspaceState::kCompacting;
      CompactionDone(ks->id)->Reset();
      // Deferred + offloaded: runs asynchronously on the device; the
      // command completes immediately (paper §V "Compaction"). The fused
      // variant also builds the requested secondary indexes in the same
      // pass (§V future work). The COMPACTING state (not the inflight
      // pin, which this command drops on completion) is what holds off a
      // concurrent drop.
      std::vector<nvme::SecondaryIndexSpec> specs;
      if (cmd.opcode == nvme::Opcode::kCompactWithIndexes) {
        specs = std::move(cmd.sidx_list);
      }
      if (sim_->tracer().enabled() && cmd.cmd_id != 0) {
        // Second flow hop: from this command's exec span to the async
        // compaction span it spawns.
        sim_->tracer().FlowBegin(sim_->tracer().Track(trk_device_), "compact",
                                 cmd.cmd_id, sim_->Now());
      }
      sim_->Spawn([](Device* device, Keyspace* target,
                     std::vector<nvme::SecondaryIndexSpec> fused,
                     std::uint64_t trigger) -> sim::Task<void> {
        Status s =
            co_await device->CompactKeyspace(target, std::move(fused), trigger);
        (void)s;  // failure rolls back to WRITABLE; surfaced via Stat
      }(this, ks, std::move(specs), cmd.cmd_id));
      out.status = Status::Ok();
      break;
    }
    case nvme::Opcode::kSync:
      out.status = co_await DoSync(ks);
      break;
    case nvme::Opcode::kCompactWait:
      while (ks->state == KeyspaceState::kCompacting ||
             ks->state == KeyspaceState::kRecompacting) {
        co_await CompactionDone(ks->id)->Wait();
      }
      out.status = Status::Ok();
      break;
    case nvme::Opcode::kSecondaryBuild:
      out.status = co_await BuildSecondaryIndex(ks, cmd.sidx);
      break;
    case nvme::Opcode::kKvRetrieve: {
      ++queries_;
      auto value = co_await QueryPoint(ks, cmd.key);
      out.status = value.status();
      if (value.ok()) out.value = std::move(*value);
      break;
    }
    case nvme::Opcode::kQueryPrimaryRange:
      ++queries_;
      out.status = co_await QueryPrimaryRange(ks, cmd.key, cmd.key_end,
                                              cmd.limit, &out.results);
      out.count = out.results.size();
      break;
    case nvme::Opcode::kQuerySecondaryRange:
      ++queries_;
      out.status = co_await QuerySecondaryRange(
          ks, cmd.sidx.name, cmd.key, cmd.key_end, cmd.limit, &out.results);
      out.count = out.results.size();
      break;
    case nvme::Opcode::kKvSelect:
    case nvme::Opcode::kKvAggregate:
      ++queries_;
      out.status = co_await QueryPushdown(ks, cmd, &out);
      break;
    case nvme::Opcode::kKeyspaceStat:
      out.count = ks->num_kvs;
      out.value = std::string(KeyspaceStateName(ks->state));
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

Status Device::CheckMutable(Keyspace* ks) const {
  switch (ks->state) {
    case KeyspaceState::kEmpty:
    case KeyspaceState::kWritable:
    case KeyspaceState::kCompacted:  // delta mode: mutations land in a
                                     // fresh KLOG/VLOG log beside the run
      return Status::Ok();
    case KeyspaceState::kCompacting:
    case KeyspaceState::kRecompacting:
      // The compactor owns the logs right now; the host retries once the
      // keyspace settles (kBusy is retryable, unlike the old blanket
      // FailedPrecondition).
      return Status::Busy("keyspace is compacting; retry");
  }
  return Status::FailedPrecondition("keyspace not writable");
}

void Device::ApplyDeltaMutation(Keyspace* ks, const std::string& key,
                                std::string value, std::uint64_t seq,
                                bool tombstone) {
  DeltaEntry& entry = ks->delta_index[key];
  if (entry.seq == 0) {
    // Fresh key: charge the node, the key bytes, and the value below.
    ks->delta_index_bytes += kDeltaEntryOverhead + key.size();
  } else {
    // Overwrite: node + key stay, the old inline value is released.
    ks->delta_index_bytes -= entry.value.size();
  }
  ks->delta_index_bytes += value.size();
  if (entry.seq != 0 && !entry.tombstone) --ks->delta_live;
  entry.seq = seq;
  entry.tombstone = tombstone;
  entry.vaddr = 0;
  entry.vlen = static_cast<std::uint32_t>(value.size());
  entry.has_value = !tombstone;
  entry.value = std::move(value);
  if (!tombstone) ++ks->delta_live;
  // Estimate: run overwrites double-count and run deletes don't subtract
  // (telling them apart needs an index lookup); re-compaction restores the
  // exact count. Recovery's delta replay computes the same value.
  ks->num_kvs = ks->run_entries + ks->delta_live;
}

// The self-triggered counterpart of kCompact-on-COMPACTED: once the delta
// index crosses the configured watermark, fold it back into the sorted run
// so the DRAM it occupies stays bounded no matter how long the host defers
// an explicit re-compaction. Called after the write lock is released (the
// fold re-acquires it); a no-op while a fold or drop is already pending.
void Device::MaybeRequestDeltaFold(Keyspace* ks) {
  if (config_.delta_fold_watermark_bytes == 0) return;
  if (ks->state != KeyspaceState::kCompacted) return;
  if (ks->pending_delete || ks->delta_index.empty()) return;
  if (ks->delta_index_bytes < config_.delta_fold_watermark_bytes) return;
  stats().counter("device.delta.watermark_folds").Increment();
  sim_->log().Info("device",
                   "delta watermark: keyspace '" + ks->name + "' index at " +
                       std::to_string(ks->delta_index_bytes) + " B >= " +
                       std::to_string(config_.delta_fold_watermark_bytes) +
                       " B, folding");
  ks->state = KeyspaceState::kRecompacting;
  CompactionDone(ks->id)->Reset();
  sim_->Spawn([](Device* device, Keyspace* target) -> sim::Task<void> {
    Status s = co_await device->RecompactKeyspace(target);
    (void)s;  // failure rolls back to COMPACTED; retried at next crossing
  }(this, ks));
}

sim::Task<Status> Device::DoPut(Keyspace* ks, std::string key,
                                std::string value) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  sim::Semaphore* lock = WriteLock(ks->id);
  co_await lock->Acquire();
  // Re-check under the lock: a re-compaction can start while this command
  // waits for the lock, and a mutation admitted past its delta snapshot
  // would be silently dropped by the fold's commit.
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    lock->Release();
    co_return admit;
  }

  co_await cpu_.Compute(config_.costs.kv_op_fixed, sim::Activity::kHostWrite);
  WriteBuffer& buffer = buffers_[ks->id];
  buffer.bytes += key.size() + value.size();
  ++puts_;
  if (ks->min_key.empty() || key < ks->min_key) ks->min_key = key;
  if (ks->max_key.empty() || key > ks->max_key) ks->max_key = key;
  const std::uint64_t seq = ks->next_seq++;
  if (ks->state == KeyspaceState::kCompacted) {
    ApplyDeltaMutation(ks, key, value, seq, /*tombstone=*/false);
  } else {
    ++ks->num_kvs;
  }
  buffer.entries.push_back(
      WriteEntry{std::move(key), std::move(value), seq, false});

  Status s = Status::Ok();
  if (buffer.bytes >= config_.write_buffer_bytes) {
    s = co_await FlushBuffer(ks);
  }
  lock->Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

// Blind point delete: appends a tombstone record to the (delta) log and
// acknowledges whether or not the key exists — existence would cost an
// index lookup on the write path. Visibility is immediate (the delta
// index/write buffer shadows the run); durability follows the same
// flush + Sync contract as PUT.
sim::Task<Status> Device::DoDelete(Keyspace* ks, std::string key) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  sim::Semaphore* lock = WriteLock(ks->id);
  co_await lock->Acquire();
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    lock->Release();
    co_return admit;
  }

  co_await cpu_.Compute(config_.costs.kv_op_fixed, sim::Activity::kHostWrite);
  WriteBuffer& buffer = buffers_[ks->id];
  buffer.bytes += key.size();
  const std::uint64_t seq = ks->next_seq++;
  if (ks->state == KeyspaceState::kCompacted) {
    ApplyDeltaMutation(ks, key, std::string(), seq, /*tombstone=*/true);
  } else {
    // WRITABLE: num_kvs counts log records (replay recomputes the same);
    // compaction's last-writer-wins pass collapses it to live keys.
    ++ks->num_kvs;
  }
  buffer.entries.push_back(WriteEntry{std::move(key), std::string(), seq,
                                      /*tombstone=*/true});

  Status s = Status::Ok();
  if (buffer.bytes >= config_.write_buffer_bytes) {
    s = co_await FlushBuffer(ks);
  }
  lock->Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

sim::Task<Status> Device::DoBulkPut(Keyspace* ks, const std::string& frame) {
  if (ks->state == KeyspaceState::kEmpty) {
    ks->state = KeyspaceState::kWritable;
  }
  KVCSD_CO_RETURN_IF_ERROR(CheckMutable(ks));
  sim::Semaphore* lock = WriteLock(ks->id);
  co_await lock->Acquire();
  if (Status admit = CheckMutable(ks); !admit.ok()) {
    lock->Release();
    co_return admit;
  }

  // Unpack the 128 KB bulk frame. The frame transfer is cheap, but each
  // record still costs per-record handling on the weak SoC cores — this is
  // what bounds the prototype's ingest rate; bulk puts win over singles by
  // amortizing the command/DMA overhead, not the record handling (§V).
  co_await cpu_.ComputeBytes(frame.size(), config_.costs.memcpy_bytes_per_sec,
                             sim::Activity::kHostWrite);

  Status s = Status::Ok();
  WriteBuffer& buffer = buffers_[ks->id];
  Slice in(frame);
  std::uint32_t records_uncharged = 0;
  while (!in.empty()) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      s = Status::InvalidArgument("malformed bulk-put frame");
      break;
    }
    buffer.bytes += key.size() + value.size();
    ++puts_;
    ++records_uncharged;
    if (ks->min_key.empty() || key.view() < ks->min_key) {
      ks->min_key = key.ToString();
    }
    if (ks->max_key.empty() || key.view() > ks->max_key) {
      ks->max_key = key.ToString();
    }
    const std::uint64_t seq = ks->next_seq++;
    if (ks->state == KeyspaceState::kCompacted) {
      ApplyDeltaMutation(ks, key.ToString(), value.ToString(), seq,
                         /*tombstone=*/false);
    } else {
      ++ks->num_kvs;
    }
    buffer.entries.push_back(
        WriteEntry{key.ToString(), value.ToString(), seq, false});
    if (records_uncharged >= 512) {
      co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
      records_uncharged = 0;
    }
    if (buffer.bytes >= config_.write_buffer_bytes) {
      s = co_await FlushBuffer(ks);
      if (!s.ok()) break;
    }
  }
  if (records_uncharged > 0) {
    co_await cpu_.Compute(records_uncharged * config_.costs.kv_op_fixed,
                            sim::Activity::kHostWrite);
  }
  lock->Release();
  MaybeRequestDeltaFold(ks);
  co_return s;
}

sim::Semaphore* Device::FlushSlots(std::uint64_t keyspace_id) {
  auto& sem = flush_slots_[keyspace_id];
  if (!sem) sem = std::make_unique<sim::Semaphore>(sim_, kMaxInflightFlushes);
  return sem.get();
}

sim::WaitGroup* Device::FlushInflight(std::uint64_t keyspace_id) {
  auto& wg = flush_inflight_[keyspace_id];
  if (!wg) wg = std::make_unique<sim::WaitGroup>(sim_);
  return wg.get();
}

// Kicks off the timed flush I/O. The buffer swap is synchronous (caller
// holds the write lock); the NAND work pipelines with up to
// kMaxInflightFlushes batches in flight, spread over the cluster's zones
// by the zone manager's rotation.
sim::Task<Status> Device::FlushBuffer(Keyspace* ks) {
  WriteBuffer& buffer = buffers_[ks->id];
  if (buffer.entries.empty()) co_return Status::Ok();
  WriteBuffer batch = std::move(buffer);
  buffer = WriteBuffer{};
  ++flushes_;

  co_await FlushSlots(ks->id)->Acquire();  // backpressure
  FlushInflight(ks->id)->Add(1);
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
      ks->vlog_bytes += values.size();

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
        ks->klog_bytes += klog.size();
        // Both logs durable; a crash here loses only the acknowledgement.
        CrashPoint("flush.after_klog");
      } else {
        result = kaddr.status();
      }
    } else {
      result = vaddr.status();
    }
  }

  if (!result.ok()) {
    if (flush_errors_[ks->id].ok()) flush_errors_[ks->id] = result;
    // The batch never became durable, but its entries are still counted
    // in num_kvs/min/max and still owed to the client. Re-queue it in
    // front of anything written since (this block has no suspension
    // point, so no put can interleave with the splice) — a retried Sync
    // then re-flushes the same data instead of persisting an empty
    // buffer and falsely reporting it durable. A VLOG record the failure
    // stranded without KLOG entries is unreferenced garbage; compaction
    // and recovery never resurrect it.
    WriteBuffer& buffer = buffers_[ks->id];
    batch.bytes += buffer.bytes;
    batch.entries.insert(batch.entries.end(),
                         std::make_move_iterator(buffer.entries.begin()),
                         std::make_move_iterator(buffer.entries.end()));
    buffer = std::move(batch);
  }
  FlushSlots(ks->id)->Release();
  FlushInflight(ks->id)->Done();
  co_await Unpin(ks);
}

// Explicit "fsync" (paper §VI): persists whatever PUTs are still sitting
// in the keyspace's DRAM write buffer, waits for the log I/O to land, and
// commits the cluster references to the metadata zone — only then is the
// data guaranteed to survive a power cut.
sim::Task<Status> Device::DoSync(Keyspace* ks) {
  if (ks->state == KeyspaceState::kCompacting ||
      ks->state == KeyspaceState::kRecompacting) {
    // The compactor owns the logs and drained every flush before taking
    // over; mutations have been rejected (kBusy) since, so there is
    // nothing buffered to persist.
    co_return Status::Ok();
  }
  sim::Semaphore* lock = WriteLock(ks->id);
  co_await lock->Acquire();
  Status s = co_await FlushBuffer(ks);
  lock->Release();
  KVCSD_CO_RETURN_IF_ERROR(s);
  co_await FlushInflight(ks->id)->Wait();
  if (auto it = flush_errors_.find(ks->id);
      it != flush_errors_.end() && !it->second.ok()) {
    // Surface the flush failure once, then clear it: the failed batch
    // was re-queued into the write buffer by FlushIo, so a retried Sync
    // re-flushes the data for real instead of failing forever on a
    // stale latched error (or, worse, persisting an empty buffer).
    Status err = it->second;
    it->second = Status::Ok();
    co_return err;
  }
  if (CrashPoint("sync.before_persist")) {
    co_return Status::IoError("simulated power loss (before sync persist)");
  }
  co_return co_await keyspace_manager_.Persist();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

sim::Task<Status> Device::DropKeyspace(Keyspace* ks) {
  if (ks->state == KeyspaceState::kCompacting ||
      ks->state == KeyspaceState::kRecompacting || ks->inflight > 0) {
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
  // dying keyspace, so freeing it is safe.
  const std::uint64_t id = ks->id;
  std::vector<ClusterId> doomed;
  auto take = [&doomed](std::vector<ClusterId>* chain) {
    doomed.insert(doomed.end(), chain->begin(), chain->end());
    chain->clear();
  };
  take(&ks->klog_clusters);
  take(&ks->vlog_clusters);
  take(&ks->pidx_clusters);
  take(&ks->sorted_value_clusters);
  for (auto& [name, sidx] : ks->secondary_indexes) {
    take(&sidx.sidx_clusters);
  }
  KVCSD_CO_RETURN_IF_ERROR(keyspace_manager_.Erase(id));  // frees *ks
  index_cache_.EraseKeyspace(id);
  buffers_.erase(id);
  write_locks_.erase(id);
  compaction_done_.erase(id);
  flush_slots_.erase(id);
  flush_inflight_.erase(id);
  flush_errors_.erase(id);

  if (CrashPoint("drop.before_persist")) {
    co_return Status::IoError("simulated power loss (before drop persist)");
  }
  // Commit point: once the snapshot without the keyspace is durable, the
  // clusters are garbage whether or not the release below succeeds —
  // recovery reclaims whatever a crash or failed reset leaves orphaned.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  (void)co_await zone_manager_.ReleaseClusters(std::move(doomed));
  co_return Status::Ok();
}

sim::Task<void> Device::MaybeFinishPendingDelete(Keyspace* ks) {
  if (!ks->pending_delete || ks->inflight > 0 ||
      ks->state == KeyspaceState::kCompacting ||
      ks->state == KeyspaceState::kRecompacting) {
    co_return;
  }
  // Clear before the first await so concurrent callers cannot double-drop.
  ks->pending_delete = false;
  Status s = co_await FinishDrop(ks);
  (void)s;  // deferred drops have no command to answer to
}

}  // namespace kvcsd::device
