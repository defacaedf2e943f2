#include "sim/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace kvcsd::sim {

void TelemetrySampler::Enable(Tick interval, std::size_t max_samples) {
  enabled_ = true;
  interval_ = interval == 0 ? 1 : interval;
  max_samples_ = max_samples == 0 ? 1 : max_samples;
}

std::uint64_t TelemetrySampler::AddSource(const std::string& key,
                                          SourceFn fn) {
  const std::uint64_t token = next_token_++;
  for (Source& s : sources_) {
    if (s.key == key) {
      s.token = token;
      s.fn = std::move(fn);
      return token;
    }
  }
  sources_.push_back(Source{key, token, std::move(fn)});
  return token;
}

void TelemetrySampler::RemoveSource(std::uint64_t token) {
  std::erase_if(sources_, [token](const Source& s) {
    return s.token == token;
  });
}

void TelemetrySampler::Collect(Gauges* out) const {
  for (const Source& s : sources_) s.fn(out);
}

std::uint32_t TelemetrySampler::NameId(const std::string& name) {
  auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void TelemetrySampler::Sample(Tick now) {
  SamplePoint point;
  point.tick = now - now % interval_;
  next_due_ = point.tick + interval_;
  scratch_.clear();
  Collect(&scratch_);
  point.values.reserve(scratch_.size());
  for (auto& [name, value] : scratch_) {
    point.values.emplace_back(NameId(name), value);
  }
  samples_.push_back(std::move(point));
  while (samples_.size() > max_samples_) {
    samples_.pop_front();
    ++dropped_;
  }
}

void TelemetrySampler::Clear() {
  samples_.clear();
  names_.clear();
  name_ids_.clear();
  dropped_ = 0;
  next_due_ = 0;
}

std::string TelemetrySampler::ToJson() const {
  std::string out;
  out.reserve(samples_.size() * 48 + 512);
  out += "{\"interval_ns\":";
  out += std::to_string(interval_);
  out += ",\"dropped\":";
  out += std::to_string(dropped_);
  out += ",\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i != 0) out += ",";
    AppendJsonString(&out, names_[i]);
  }
  out += "],\"samples\":[\n";
  bool first = true;
  for (const SamplePoint& p : samples_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"t\":";
    out += std::to_string(p.tick);
    out += ",\"v\":[";
    bool first_v = true;
    for (const auto& [id, value] : p.values) {
      if (!first_v) out += ",";
      first_v = false;
      out += "[";
      out += std::to_string(id);
      out += ",";
      out += std::to_string(value);
      out += "]";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

Status TelemetrySampler::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open telemetry file: " + path);
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IoError("short write to telemetry file: " + path);
  }
  return Status::Ok();
}

}  // namespace kvcsd::sim
