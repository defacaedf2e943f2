#include "sim/tracer.h"

#include <cstdio>

#include "common/json.h"
#include "sim/simulation.h"

namespace kvcsd::sim {

namespace {

// Ticks are nanoseconds; trace_event timestamps are microseconds. Three
// decimals keep full nanosecond precision and a deterministic rendering.
void AppendMicros(std::string* out, Tick ticks) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ticks / 1000),
                static_cast<unsigned long long>(ticks % 1000));
  *out += buf;
}

}  // namespace

std::uint32_t Tracer::Track(std::string_view name) {
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return i;
  }
  tracks_.emplace_back(name);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void Tracer::CompleteSpan(
    std::uint32_t track, std::string_view name, Tick begin, Tick end,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_ || Full()) return;
  events_.push_back(Event{track, 'X', std::string(name), begin,
                          std::max(begin, end), 0, std::move(args)});
}

void Tracer::Flow(std::uint32_t track, char phase, std::string_view name,
                  std::uint64_t id, Tick at) {
  if (!enabled_ || Full()) return;
  events_.push_back(Event{track, phase, std::string(name), at, at, id, {}});
}

void Tracer::FlowBegin(std::uint32_t track, std::string_view name,
                       std::uint64_t id, Tick at) {
  Flow(track, 's', name, id, at);
}

void Tracer::FlowEnd(std::uint32_t track, std::string_view name,
                     std::uint64_t id, Tick at) {
  Flow(track, 'f', name, id, at);
}

std::string Tracer::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 96 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  comma();
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"kvcsd-sim\"}}";
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(i);
    out += ",\"args\":{\"name\":";
    AppendJsonString(&out, tracks_[i]);
    out += "}}";
  }
  for (const Event& e : events_) {
    comma();
    out += "{\"name\":";
    AppendJsonString(&out, e.name);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.track);
    out += ",\"ts\":";
    AppendMicros(&out, e.begin);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      AppendMicros(&out, e.end - e.begin);
    } else {
      // Flow events ('s'/'f') are matched by (cat, name, id); binding to
      // the enclosing slice needs "bp":"e" on the terminating event.
      out += ",\"cat\":\"flow\",\"id\":";
      out += std::to_string(e.flow_id);
      if (e.phase == 'f') out += ",\"bp\":\"e\"";
    }
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        AppendJsonString(&out, k);
        out += ":";
        AppendJsonString(&out, v);
      }
      out += "}";
    }
    out += "}";
  }
  // Events past the cap are gone: a consumer must know it reads a capped
  // trace before attributing anything from it.
  out += "\n],\"otherData\":{\"dropped_events\":";
  out += std::to_string(dropped_);
  out += "}}\n";
  return out;
}

Status Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status::Ok();
}

TraceSpan::TraceSpan(Simulation* sim, std::string_view track,
                     std::string_view name) {
  if (sim == nullptr || !sim->tracer().enabled()) return;
  sim_ = sim;
  track_ = sim->tracer().Track(track);
  name_ = name;
  begin_ = sim->Now();
}

TraceSpan::~TraceSpan() {
  if (sim_ == nullptr) return;
  sim_->tracer().CompleteSpan(track_, name_, begin_, sim_->Now(),
                              std::move(args_));
}

void TraceSpan::Arg(std::string_view key, std::string_view value) {
  if (sim_ == nullptr) return;
  args_.emplace_back(std::string(key), std::string(value));
}

void TraceSpan::Arg(std::string_view key, std::uint64_t value) {
  if (sim_ == nullptr) return;
  args_.emplace_back(std::string(key), std::to_string(value));
}

}  // namespace kvcsd::sim
