#include "harness/json_report.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <ctime>

#include "common/json.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "harness/tracing.h"

namespace kvcsd::harness {

namespace {

// Shortest round-trip rendering; the same double always prints the same
// bytes, independent of locale or printf quirks.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  out->append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Str(std::string_view s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::string(s);
  return v;
}

JsonValue JsonValue::Uint(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kUint;
  v.uint_ = u;
  return v;
}

JsonValue JsonValue::Num(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue& JsonValue::Set(std::string_view key, JsonValue value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue& JsonValue::Push(JsonValue value) {
  assert(kind_ == Kind::kArray);
  elements_.push_back(std::move(value));
  return *this;
}

double JsonValue::number_value() const {
  switch (kind_) {
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      return 0.0;
  }
}

void JsonValue::AppendTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kUint:
      *out += std::to_string(uint_);
      break;
    case Kind::kDouble:
      AppendDouble(out, double_);
      break;
    case Kind::kString:
      AppendJsonString(out, string_);
      break;
    case Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& e : elements_) {
        if (!first) *out += ',';
        first = false;
        e.AppendTo(out);
      }
      *out += ']';
      break;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) *out += ',';
        first = false;
        AppendJsonString(out, k);
        *out += ':';
        v.AppendTo(out);
      }
      *out += '}';
      break;
    }
  }
}

std::string JsonValue::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  std::string_view in;
  std::size_t pos = 0;

  void SkipWs() {
    while (pos < in.size() &&
           std::isspace(static_cast<unsigned char>(in[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos) + ": " + what);
  }

  Result<JsonValue> Value() {
    SkipWs();
    if (pos >= in.size()) return Error("unexpected end of input");
    const char c = in[pos];
    if (c == '{') return ObjectValue();
    if (c == '[') return ArrayValue();
    if (c == '"') return StringValue();
    if (in.compare(pos, 4, "true") == 0) {
      pos += 4;
      return JsonValue::Bool(true);
    }
    if (in.compare(pos, 5, "false") == 0) {
      pos += 5;
      return JsonValue::Bool(false);
    }
    if (in.compare(pos, 4, "null") == 0) {
      pos += 4;
      return JsonValue();
    }
    return NumberValue();
  }

  Result<JsonValue> ObjectValue() {
    if (!Consume('{')) return Error("expected '{'");
    JsonValue out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return out;
    for (;;) {
      auto key = StringValue();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      auto value = Value();
      if (!value.ok()) return value.status();
      out.Set(key->string_value(), std::move(*value));
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ArrayValue() {
    if (!Consume('[')) return Error("expected '['");
    JsonValue out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return out;
    for (;;) {
      auto value = Value();
      if (!value.ok()) return value.status();
      out.Push(std::move(*value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Error("expected ',' or ']'");
    }
  }

  Result<JsonValue> StringValue() {
    SkipWs();
    if (pos >= in.size() || in[pos] != '"') return Error("expected string");
    ++pos;
    std::string out;
    while (pos < in.size() && in[pos] != '"') {
      char c = in[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= in.size()) return Error("truncated escape");
      const char e = in[pos++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos + 4 > in.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          auto [ptr, ec] = std::from_chars(in.data() + pos,
                                           in.data() + pos + 4, code, 16);
          if (ec != std::errc() || ptr != in.data() + pos + 4) {
            return Error("bad \\u escape");
          }
          pos += 4;
          if (code >= 0x80) {
            // Reports only carry ASCII + escaped control characters.
            return Error("non-ASCII \\u escape unsupported");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    if (pos >= in.size()) return Error("unterminated string");
    ++pos;  // closing quote
    return JsonValue::Str(out);
  }

  Result<JsonValue> NumberValue() {
    const std::size_t start = pos;
    if (pos < in.size() && (in[pos] == '-' || in[pos] == '+')) ++pos;
    bool fractional = false;
    while (pos < in.size()) {
      const char c = in[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        fractional = true;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) return Error("expected number");
    const std::string_view text = in.substr(start, pos - start);
    const char* first = text.data();
    const char* last = text.data() + text.size();
    if (!fractional && text[0] != '-') {
      std::uint64_t u = 0;
      auto [ptr, ec] = std::from_chars(first, last, u);
      if (ec == std::errc() && ptr == last) return JsonValue::Uint(u);
    }
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || ptr != last) return Error("bad number");
    return JsonValue::Num(d);
  }
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  Parser p{text};
  auto value = p.Value();
  if (!value.ok()) return value.status();
  p.SkipWs();
  if (p.pos != text.size()) return p.Error("trailing bytes after document");
  return value;
}

// ---------------------------------------------------------------------------
// JsonReporter
// ---------------------------------------------------------------------------

JsonReporter::JsonReporter(std::string bench, const Flags& flags)
    : bench_(std::move(bench)),
      json_path_(flags.GetString("json", "")),
      traced_(!flags.GetString("trace", "").empty()) {
  for (const auto& [name, value] : flags.values()) {
    // Output destinations and the observability flags of harness/tracing.h
    // are not workload parameters; keeping them out of "args" lets the
    // regression checker compare runs that differ only in what they dump
    // and where.
    if (name == "json" || name == "trace" || name == "telemetry" ||
        name == "telemetry_interval_us" || name == "health" ||
        name.starts_with("flight_")) {
      continue;
    }
    args_.Set(name, JsonValue::Str(value));
  }
}

void JsonReporter::AddMetric(const std::string& name, std::uint64_t value) {
  metrics_.Set(name, JsonValue::Uint(value));
}

void JsonReporter::AddMetric(const std::string& name, double value) {
  metrics_.Set(name, JsonValue::Num(value));
}

void JsonReporter::AddHistogram(const std::string& name,
                                const sim::Histogram& h) {
  const sim::HistogramSummary s = h.Summary();
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Uint(s.count));
  out.Set("mean", JsonValue::Num(s.mean));
  out.Set("min", JsonValue::Uint(s.min));
  out.Set("max", JsonValue::Uint(s.max));
  out.Set("p50", JsonValue::Num(s.p50));
  out.Set("p95", JsonValue::Num(s.p95));
  out.Set("p99", JsonValue::Num(s.p99));
  out.Set("p999", JsonValue::Num(s.p999));
  histograms_.Set(name, std::move(out));
}

void JsonReporter::AddStats(const sim::Stats& stats, std::string_view prefix) {
  for (const auto& [name, counter] : stats.counters()) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    counters_.Set(name, JsonValue::Uint(counter.value()));
  }
  for (const auto& [name, histogram] : stats.histograms()) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    AddHistogram(name, histogram);
  }
}

void JsonReporter::AddCompactionStats(const device::CompactionStats& stats) {
  compaction_.Set("bytes_read", JsonValue::Uint(stats.bytes_read));
  compaction_.Set("bytes_written", JsonValue::Uint(stats.bytes_written));
  compaction_.Set("runs_spilled", JsonValue::Uint(stats.runs_spilled));
  compaction_.Set("max_merge_fanin", JsonValue::Uint(stats.max_merge_fanin));
  compaction_.Set("phase1_ticks", JsonValue::Uint(stats.phase1_ticks));
  compaction_.Set("phase2_ticks", JsonValue::Uint(stats.phase2_ticks));
  compaction_.Set("commit_ticks", JsonValue::Uint(stats.commit_ticks));
  compaction_.Set("total_ticks", JsonValue::Uint(stats.total_ticks));
}

void JsonReporter::AddTable(const Table& table) {
  JsonValue out = JsonValue::Object();
  out.Set("title", JsonValue::Str(table.title()));
  JsonValue columns = JsonValue::Array();
  for (const std::string& c : table.columns()) columns.Push(JsonValue::Str(c));
  out.Set("columns", std::move(columns));
  JsonValue rows = JsonValue::Array();
  for (const auto& row : table.rows()) {
    JsonValue cells = JsonValue::Array();
    for (const std::string& cell : row) cells.Push(JsonValue::Str(cell));
    rows.Push(std::move(cells));
  }
  out.Set("rows", std::move(rows));
  tables_.Push(std::move(out));
}

std::string JsonReporter::ToJson(bool include_wall_clock) const {
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", JsonValue::Uint(kSchemaVersion));
  root.Set("bench", JsonValue::Str(bench_));
  if (include_wall_clock) {
    root.Set("wall_clock_unix",
             JsonValue::Uint(static_cast<std::uint64_t>(std::time(nullptr))));
  }
  root.Set("args", args_);
  JsonValue metrics = metrics_;
  if (traced_) {
    metrics.Set("trace.dropped_events", JsonValue::Uint(TraceDroppedEvents()));
  }
  root.Set("metrics", std::move(metrics));
  root.Set("counters", counters_);
  root.Set("histograms", histograms_);
  root.Set("compaction", compaction_);
  root.Set("tables", tables_);
  std::string out = root.ToString();
  out += '\n';
  return out;
}

Status JsonReporter::WriteFile(const std::string& path,
                               bool include_wall_clock) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open report file: " + path);
  }
  const std::string json = ToJson(include_wall_clock);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IoError("short write to report file: " + path);
  }
  return Status::Ok();
}

bool JsonReporter::WriteIfRequested() const {
  if (json_path_.empty()) return false;
  Status s = WriteFile(json_path_);
  if (s.ok()) {
    std::printf("JSON report written to %s\n", json_path_.c_str());
  } else {
    std::printf("FAILED to write JSON report: %s\n", s.ToString().c_str());
  }
  return s.ok();
}

}  // namespace kvcsd::harness
