// Time-series telemetry for the simulation: named gauge sources sampled on
// a fixed simulated-time cadence into a bounded ring of samples.
//
// Spans (tracer.h) answer "where did this command's time go"; telemetry
// answers "what did the device look like while it ran" — NVMe queue depth,
// in-flight commands, per-keyspace log sizes, zone utilization per role,
// compaction progress. Components register a source callback under a key;
// the simulation polls Due()/Sample() from its event loop, so sampling
// consumes zero simulated time and is exactly reproducible.
//
// Re-registering a key replaces the previous source: a Device::Restart
// registers its gauges under the same key and supersedes the powered-off
// device's callback, keeping one live writer per key across power cycles.
// The registry is also the one place point-in-time gauge snapshots come
// from (Collect): the event ring's dumps and the harness --health files.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace kvcsd::sim {

class TelemetrySampler {
 public:
  static constexpr std::size_t kDefaultMaxSamples = 1 << 16;

  // A source appends (gauge name, value) pairs for the current instant.
  using Gauges = std::vector<std::pair<std::string, std::uint64_t>>;
  using SourceFn = std::function<void(Gauges*)>;

  void Enable(Tick interval, std::size_t max_samples = kDefaultMaxSamples);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Registers (or, for an existing key, replaces) a gauge source. Returns
  // a token for RemoveSource; an owner whose lifetime can end before the
  // simulation's must deregister, or Sample() calls into freed memory.
  std::uint64_t AddSource(const std::string& key, SourceFn fn);
  // Idempotent; a token superseded by a later AddSource on the same key
  // is ignored (the replacement owns the key now).
  void RemoveSource(std::uint64_t token);
  // Appends every registered source's gauges for the current instant,
  // whether or not sampling is enabled.
  void Collect(Gauges* out) const;

  // Event-loop hook: cheap check + sample. Sample() stamps the sample at
  // the latest cadence multiple <= now, so sample spacing is exact even
  // when event times are sparse.
  bool Due(Tick now) const {
    return enabled_ && now >= next_due_ && !sources_.empty();
  }
  void Sample(Tick now);

  struct SamplePoint {
    Tick tick = 0;
    // (gauge name id, value); ids index into names().
    std::vector<std::pair<std::uint32_t, std::uint64_t>> values;
  };

  const std::deque<SamplePoint>& samples() const { return samples_; }
  const std::vector<std::string>& names() const { return names_; }
  std::size_t size() const { return samples_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  void Clear();

  // {"interval_ns":..., "names":[...], "samples":[{"t":ns,"v":[[id,value],
  // ...]}, ...]} — columnar so long runs stay compact.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Source {
    std::string key;
    std::uint64_t token = 0;
    SourceFn fn;
  };

  std::uint32_t NameId(const std::string& name);

  bool enabled_ = false;
  Tick interval_ = Microseconds(100);
  Tick next_due_ = 0;
  std::size_t max_samples_ = kDefaultMaxSamples;
  std::uint64_t next_token_ = 1;
  std::vector<Source> sources_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::deque<SamplePoint> samples_;
  std::uint64_t dropped_ = 0;
  Gauges scratch_;
};

}  // namespace kvcsd::sim
