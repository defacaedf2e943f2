#include "sim/log.h"

#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "sim/telemetry.h"

namespace kvcsd::sim {

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Log::Entry& Log::NextSlot(LogLevel level) {
  const bool full = ring_.size() == kCapacity;
  Entry& slot = full ? ring_[next_] : ring_.emplace_back();
  if (full) next_ = (next_ + 1) % kCapacity;
  slot.seq = next_seq_++;
  slot.tick = clock_ ? clock_() : 0;
  slot.level = level;
  return slot;
}

void Log::Write(LogLevel level, std::string_view component,
                std::string message) {
  Entry& e = NextSlot(level);
  e.is_command = false;
  e.component = component;
  e.message = std::move(message);
}

std::uint32_t Log::DeviceId(std::string_view name) {
  for (std::uint32_t id = 0; id < devices_.size(); ++id) {
    if (devices_[id] == name) return id;
  }
  devices_.emplace_back(name);
  return static_cast<std::uint32_t>(devices_.size() - 1);
}

std::string_view Log::DeviceName(std::uint32_t id) const {
  return id < devices_.size() ? std::string_view(devices_[id]) : "";
}

void Log::Record(const Command& command) {
  Entry& e = NextSlot(command.status == StatusCode::kOk ? LogLevel::kInfo
                                                        : LogLevel::kWarn);
  e.is_command = true;
  e.component.clear();  // keeps the slot's buffer: no allocation
  e.message.clear();
  e.command = command;
}

const char* Log::BreachReason(const Command& command) const {
  if (slo_exec_ns_ != 0 && command.exec_ns > slo_exec_ns_) return "slo_exec";
  if (dump_on_busy_ && command.status == StatusCode::kBusy) return "busy";
  return nullptr;
}

std::vector<Log::Entry> Log::Entries() const {
  std::vector<Entry> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::string Log::Dump(std::string_view reason, std::string_view crash_point) {
  ++trips_;
  std::string json = "{\n  \"reason\": ";
  AppendJsonString(&json, reason);
  json += ",\n  \"tick\": " + std::to_string(clock_ ? clock_() : 0);
  json += ",\n  \"trip\": " + std::to_string(trips_);
  if (!crash_point.empty()) {
    json += ",\n  \"crash_point\": ";
    AppendJsonString(&json, crash_point);
  }
  json += ",\n  \"utilization\": {";
  bool first = true;
  if (gauges_ != nullptr) {
    TelemetrySampler::Gauges gauges;
    gauges_->Collect(&gauges);
    for (const auto& [name, value] : gauges) {
      if (!first) json += ",";
      first = false;
      json += "\n    ";
      AppendJsonString(&json, name);
      json += ": " + std::to_string(value);
    }
  }
  if (!first) json += "\n  ";
  json += "},\n  \"entries\": [";
  first = true;
  for (const Entry& e : Entries()) {
    if (!first) json += ",";
    first = false;
    json += "\n    {\"seq\": " + std::to_string(e.seq);
    json += ", \"tick\": " + std::to_string(e.tick);
    json += ", \"level\": ";
    AppendJsonString(&json, LogLevelName(e.level));
    if (e.is_command) {
      const Command& c = e.command;
      json += ", \"cmd_id\": " + std::to_string(c.cmd_id) + ", \"op\": ";
      AppendJsonString(&json, c.op);
      json += ", \"dev\": ";
      AppendJsonString(&json, DeviceName(c.device));
      json += ", \"q\": " + std::to_string(c.queue_id);
      json += ", \"queue_wait_ns\": " +
              std::to_string(c.ledger[Layer::kSqWait]);
      json += ", \"dispatch_ns\": " +
              std::to_string(c.ledger[Layer::kDispatch]);
      json += ", \"exec_ns\": " + std::to_string(c.exec_ns);
      json += ", \"status\": ";
      AppendJsonString(&json, StatusCodeName(c.status));
      // The ledger's non-zero layers in ns, and its path tag.
      json += ", \"ledger\": {";
      const char* sep = "";
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        const Tick t = c.ledger[static_cast<Layer>(i)];
        if (t == 0) continue;
        json += std::string(sep) + "\"" + LayerName(static_cast<Layer>(i)) +
                "\": " + std::to_string(t);
        sep = ", ";
      }
      if (c.ledger.path() != nullptr) {
        json += std::string(sep) + "\"path\": ";
        AppendJsonString(&json, c.ledger.path());
      }
      json += "}";
    } else {
      json += ", \"component\": ";
      AppendJsonString(&json, e.component);
      json += ", \"message\": ";
      AppendJsonString(&json, e.message);
    }
    json += "}";
  }
  if (!first) json += "\n  ";
  json += "]\n}\n";

  last_dump_ = json;
  if (!dump_path_.empty()) {
    std::ofstream out(dump_path_ + "." + std::to_string(trips_) + ".json");
    out << json;
  }
  return json;
}

std::string Log::ToString() const {
  std::string out;
  char head[96];
  for (const Entry& e : Entries()) {
    std::snprintf(head, sizeof(head), "[%12llu ns] %-5s %s: ",
                  static_cast<unsigned long long>(e.tick),
                  std::string(LogLevelName(e.level)).c_str(),
                  e.is_command ? "cmd" : e.component.c_str());
    out += head;
    if (e.is_command) {
      const Command& c = e.command;
      char body[192];
      std::snprintf(
          body, sizeof(body),
          "#%llu %s dev=%s q=%u wait=%llu dispatch=%llu exec=%llu %s",
          static_cast<unsigned long long>(c.cmd_id), c.op,
          std::string(DeviceName(c.device)).c_str(), c.queue_id,
          static_cast<unsigned long long>(c.ledger[Layer::kSqWait]),
          static_cast<unsigned long long>(c.ledger[Layer::kDispatch]),
          static_cast<unsigned long long>(c.exec_ns),
          std::string(StatusCodeName(c.status)).c_str());
      out += body;
    } else {
      out += e.message;
    }
    out += '\n';
  }
  return out;
}

void Log::Clear() {
  ring_.clear();
  next_ = 0;
  next_seq_ = 0;
}

}  // namespace kvcsd::sim
