// Machine-readable bench reports.
//
// Every bench_* binary accepts --json=<path> and writes a schema-versioned
// JSON report next to its human-readable tables: throughput metrics,
// latency percentiles pulled from the sim::Stats histograms, compaction
// counters, and the rendered tables themselves. CI consumes these with
// tools/check_bench_regression.py to gate performance regressions against
// checked-in baselines.
//
// Serialization is deterministic by construction — object keys keep
// insertion order, doubles print via std::to_chars shortest round-trip —
// so two runs of the same deterministic simulation produce byte-identical
// reports apart from the "wall_clock_unix" field (which ToJson can omit;
// the determinism test and the regression checker both ignore it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kvcsd/device.h"
#include "sim/stats.h"

namespace kvcsd::harness {

class Flags;
class Table;

// A JSON document node. Objects preserve key insertion order; Set on an
// existing key overwrites in place (order unchanged).
class JsonValue {
 public:
  JsonValue() = default;  // null

  static JsonValue Object();
  static JsonValue Array();
  static JsonValue Str(std::string_view s);
  static JsonValue Uint(std::uint64_t v);
  static JsonValue Num(double v);
  static JsonValue Bool(bool v);


  // Object member access (asserts this is an object).
  JsonValue& Set(std::string_view key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Array element access (asserts this is an array).
  JsonValue& Push(JsonValue value);
  const std::vector<JsonValue>& elements() const { return elements_; }

  std::string_view string_value() const { return string_; }
  double number_value() const;
  std::uint64_t uint_value() const { return uint_; }

  void AppendTo(std::string* out) const;
  std::string ToString() const;

 private:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
  };
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses a JSON document produced by JsonValue/JsonReporter (objects,
// arrays, strings, numbers, bools, null). Used by the schema round-trip
// test; the CI checker parses with Python instead.
Result<JsonValue> ParseJson(std::string_view text);

// Collects one bench run's results and writes the report. Typical use:
//
//   Flags flags(argc, argv);
//   JsonReporter report("fig7_put_scaling", flags);
//   report.AddMetric("csd.put.cores4.keys_per_sec", rate);
//   report.AddStats(bed.sim().stats(), "client.cmd.");
//   report.AddTable(time_table);
//   report.WriteIfRequested();  // honours --json=<path>
class JsonReporter {
 public:
  static constexpr int kSchemaVersion = 1;

  // Captures the bench name, the parsed flags as the report's "args"
  // (minus the output-path flags "json" and "trace", which differ between
  // otherwise identical runs), and the --json path for WriteIfRequested.
  JsonReporter(std::string bench, const Flags& flags);

  void AddMetric(const std::string& name, std::uint64_t value);
  void AddMetric(const std::string& name, double value);

  // One histogram as {count, mean, min, max, p50, p95, p99} under
  // "histograms".<name>.
  void AddHistogram(const std::string& name, const sim::Histogram& h);

  // Every counter and histogram in the registry whose name starts with
  // `prefix` (empty = all): counters under "counters", histograms via
  // AddHistogram.
  void AddStats(const sim::Stats& stats, std::string_view prefix = {});

  // The device's cumulative compaction counters under "compaction".
  void AddCompactionStats(const device::CompactionStats& stats);

  // A rendered table as {title, columns, rows} under "tables".
  void AddTable(const Table& table);

  // The full report. With include_wall_clock the report carries the
  // "wall_clock_unix" stamp; without it the output is a pure function of
  // the simulated run.
  std::string ToJson(bool include_wall_clock = true) const;

  Status WriteFile(const std::string& path,
                   bool include_wall_clock = true) const;

  // Writes to the --json path when one was given; reports success or
  // failure on stdout. Returns false when --json was absent.
  bool WriteIfRequested() const;

  const std::string& json_path() const { return json_path_; }

 private:
  std::string bench_;
  std::string json_path_;
  // A --trace run reports "trace.dropped_events" (harness/tracing.h).
  bool traced_;
  JsonValue args_ = JsonValue::Object();
  JsonValue metrics_ = JsonValue::Object();
  JsonValue counters_ = JsonValue::Object();
  JsonValue histograms_ = JsonValue::Object();
  JsonValue compaction_ = JsonValue::Object();
  JsonValue tables_ = JsonValue::Array();
};

}  // namespace kvcsd::harness
