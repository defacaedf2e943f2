#include "storage/zns.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace kvcsd::storage {

ZnsSsd::ZnsSsd(sim::Simulation* sim, const ZnsConfig& config)
    : sim_(sim), config_(config),
      nand_(sim, config.nand, config.stats_prefix + "zns"),
      zones_(config.num_zones), zone_tags_(config.num_zones, kNoTag) {
  if (config_.faults != nullptr) {
    // Power cut tears the in-flight append; the hook list is cleared by
    // the injector after a crash, so this fires at most once per arming.
    crash_hook_token_ = config_.faults->AddCrashHook(
        [this] { TearLastAppend(config_.faults->torn_tail_keep()); });
  }
}

ZnsSsd::~ZnsSsd() {
  if (config_.faults != nullptr && crash_hook_token_ != 0) {
    config_.faults->RemoveCrashHook(crash_hook_token_);
  }
}

std::uint16_t ZnsSsd::InternTag(std::string_view tag) {
  for (std::uint16_t i = 0; i < tag_sets_.size(); ++i) {
    if (tag_sets_[i].name == tag) return i;
  }
  TagCounters set;
  set.name = std::string(tag);
  const std::string prefix =
      config_.stats_prefix + "zns." + set.name + ".";
  sim::Stats& stats = sim_->stats();
  set.append_bytes = &stats.counter(prefix + "append_bytes");
  set.appends = &stats.counter(prefix + "appends");
  set.read_bytes = &stats.counter(prefix + "read_bytes");
  set.reads = &stats.counter(prefix + "reads");
  set.resets = &stats.counter(prefix + "resets");
  tag_sets_.push_back(std::move(set));
  return static_cast<std::uint16_t>(tag_sets_.size() - 1);
}

void ZnsSsd::TagZone(std::uint32_t zone, std::string_view tag) {
  if (zone >= config_.num_zones) return;
  zone_tags_[zone] = InternTag(tag);
}

Status ZnsSsd::CheckZoneId(std::uint32_t zone) const {
  if (zone >= config_.num_zones) {
    return Status::InvalidArgument("zone id " + std::to_string(zone) +
                                   " out of range");
  }
  return Status::Ok();
}

sim::Task<Result<std::uint64_t>> ZnsSsd::Append(
    std::uint32_t zone, std::span<const std::byte> data, sim::Activity act) {
  if (Status s = CheckZoneId(zone); !s.ok()) co_return s;
  if (config_.faults != nullptr) {
    if (Status s = config_.faults->OnIo(sim::FaultOp::kAppend, zone);
        !s.ok()) {
      co_return s;
    }
  }
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kFull) {
    co_return Status::FailedPrecondition("append to full zone");
  }
  if (data.empty()) {
    co_return Status::InvalidArgument("empty append");
  }
  if (z.write_pointer + data.size() > config_.zone_size) {
    co_return Status::OutOfSpace("append exceeds zone capacity");
  }

  const std::uint64_t addr =
      static_cast<std::uint64_t>(zone) * config_.zone_size + z.write_pointer;
  z.data.insert(z.data.end(), data.begin(), data.end());
  z.write_pointer += data.size();
  z.state = z.write_pointer == config_.zone_size ? ZoneState::kFull
                                                 : ZoneState::kOpen;
  bytes_written_ += data.size();
  if (zone_tags_[zone] != kNoTag) {
    TagCounters& tc = tag_sets_[zone_tags_[zone]];
    tc.append_bytes->Add(data.size());
    tc.appends->Increment();
  }

  // Record before awaiting the program latency: a crash during the NAND
  // program is exactly the window where this append ends up torn.
  has_last_append_ = true;
  last_append_zone_ = zone;
  last_append_end_ = z.write_pointer;
  last_append_len_ = data.size();

  co_await nand_.Program(ChannelOf(zone), data.size(), act);
  co_return addr;
}

sim::Task<Status> ZnsSsd::Read(std::uint64_t addr, std::span<std::byte> out,
                               sim::Activity act) {
  const std::uint32_t zone =
      static_cast<std::uint32_t>(addr / config_.zone_size);
  if (Status s = CheckZoneId(zone); !s.ok()) co_return s;
  if (config_.faults != nullptr) {
    if (Status s = config_.faults->OnIo(sim::FaultOp::kRead, zone); !s.ok()) {
      co_return s;
    }
  }
  const Zone& z = zones_[zone];
  const std::uint64_t offset = addr % config_.zone_size;
  if (offset + out.size() > z.write_pointer) {
    co_return Status::InvalidArgument(
        "read beyond write pointer (zone " + std::to_string(zone) + ")");
  }
  std::memcpy(out.data(), z.data.data() + offset, out.size());
  bytes_read_ += out.size();
  if (zone_tags_[zone] != kNoTag) {
    TagCounters& tc = tag_sets_[zone_tags_[zone]];
    tc.read_bytes->Add(out.size());
    tc.reads->Increment();
  }
  co_await nand_.Read(ChannelOf(zone), out.size(), act);
  co_return Status::Ok();
}

sim::Task<Status> ZnsSsd::Reset(std::uint32_t zone, sim::Activity act) {
  if (Status s = CheckZoneId(zone); !s.ok()) co_return s;
  if (config_.faults != nullptr) {
    if (Status s = config_.faults->OnIo(sim::FaultOp::kReset, zone);
        !s.ok()) {
      co_return s;
    }
  }
  Zone& z = zones_[zone];
  const bool had_data = z.write_pointer > 0;
  z.state = ZoneState::kEmpty;
  z.write_pointer = 0;
  z.data.clear();
  z.data.shrink_to_fit();
  ++resets_;
  if (zone_tags_[zone] != kNoTag) {
    tag_sets_[zone_tags_[zone]].resets->Increment();
  }
  if (has_last_append_ && last_append_zone_ == zone) {
    has_last_append_ = false;  // the torn-tail candidate is gone
  }
  if (had_data) {
    // NAND erase-blocks must be erased before reuse; resetting a
    // never-written zone only rewinds the write pointer.
    co_await nand_.Erase(ChannelOf(zone), act);
  }
  co_return Status::Ok();
}

sim::Task<std::vector<Status>> ZnsSsd::ResetZones(
    std::vector<std::uint32_t> zones) {
  std::vector<Status> results(zones.size());
  // One worker per zone, and no iteration ever fails, so ParallelFor
  // claims every index in order instead of stopping at the first error:
  // each zone's status travels in `results`, and the join's is always OK
  // (ZnsFaultTest.ResetZonesReportsEachZonesStatus).
  (void)co_await sim::ParallelFor(
      sim_, zones.size(), static_cast<std::uint32_t>(zones.size()),
      [&](std::size_t i) -> sim::Task<Status> {
        results[i] = co_await Reset(zones[i]);
        co_return Status::Ok();
      });
  co_return results;
}

Status ZnsSsd::Finish(std::uint32_t zone) {
  KVCSD_RETURN_IF_ERROR(CheckZoneId(zone));
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kEmpty) {
    return Status::FailedPrecondition("finish on empty zone");
  }
  z.state = ZoneState::kFull;
  return Status::Ok();
}

void ZnsSsd::TearLastAppend(double keep_fraction) {
  if (keep_fraction < 0.0 || !has_last_append_) return;
  Zone& z = zones_[last_append_zone_];
  // Only the tail of the zone can be torn; a later append to the same zone
  // means this one already completed its program.
  if (z.write_pointer != last_append_end_) return;
  std::uint64_t keep = static_cast<std::uint64_t>(
      static_cast<double>(last_append_len_) * std::clamp(keep_fraction, 0.0,
                                                         1.0));
  if (keep_fraction < 1.0 && keep >= last_append_len_) {
    keep = last_append_len_ - 1;
  }
  const std::uint64_t drop = last_append_len_ - keep;
  if (drop == 0) return;
  z.write_pointer -= drop;
  z.data.resize(z.data.size() - drop);
  if (z.state == ZoneState::kFull && z.write_pointer < config_.zone_size) {
    z.state = z.write_pointer == 0 ? ZoneState::kEmpty : ZoneState::kOpen;
  } else if (z.write_pointer == 0) {
    z.state = ZoneState::kEmpty;
  }
  has_last_append_ = false;
}

void ZnsSsd::CloneStateFrom(const ZnsSsd& other) {
  zones_ = other.zones_;
}

ZoneState ZnsSsd::zone_state(std::uint32_t zone) const {
  return zones_[zone].state;
}

std::uint64_t ZnsSsd::write_pointer(std::uint32_t zone) const {
  return zones_[zone].write_pointer;
}

}  // namespace kvcsd::storage
