#include "harness/tracing.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"

namespace kvcsd::harness {

namespace {

// One requested output: <path>, then <path>.1, <path>.2, ...
struct Output {
  std::string path;
  unsigned files = 0;

  bool active() const { return !path.empty(); }
  std::string NextPath() {
    std::string next = path;
    if (files > 0) next += "." + std::to_string(files);
    ++files;
    return next;
  }
};

// Process-wide bench configuration, set once by ApplyObservabilityFlags.
Output g_trace;                 // NOLINT
Output g_telemetry;             // NOLINT
Tick g_telemetry_interval = 0;  // NOLINT
Output g_health;                // NOLINT
Output g_flight;                // NOLINT
Tick g_flight_slo_exec_ns = 0;  // NOLINT
bool g_flight_busy = false;     // NOLINT
std::uint64_t g_trace_dropped = 0;  // NOLINT

void DumpHealth(sim::Simulation* sim) {
  if (!g_health.active()) return;
  sim::TelemetrySampler::Gauges gauges;
  sim->telemetry().Collect(&gauges);
  if (gauges.empty()) return;
  const std::string path = g_health.NextPath();
  std::string json = "{\n  \"tick\": " + std::to_string(sim->Now());
  json += ",\n  \"gauges\": {";
  bool first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) json += ",";
    first = false;
    json += "\n    ";
    AppendJsonString(&json, name);
    json += ": " + std::to_string(value);
  }
  if (!first) json += "\n  ";
  json += "}\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::printf("FAILED to write health page: %s\n", path.c_str());
    return;
  }
  out << json;
  std::printf("health page written to %s\n", path.c_str());
}

void DumpTrace(sim::Simulation* sim) {
  if (!g_trace.active() || !sim->tracer().enabled()) return;
  if (sim->tracer().size() == 0) return;
  const std::string path = g_trace.NextPath();
  g_trace_dropped += sim->tracer().dropped();
  Status s = sim->tracer().WriteFile(path);
  if (s.ok()) {
    std::printf("trace written to %s (%zu events", path.c_str(),
                sim->tracer().size());
    if (sim->tracer().dropped() > 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(sim->tracer().dropped()));
    }
    std::printf(")\n");
  } else {
    std::printf("FAILED to write trace: %s\n", s.ToString().c_str());
  }
}

void DumpTelemetry(sim::Simulation* sim) {
  if (!g_telemetry.active() || !sim->telemetry().enabled()) return;
  if (sim->telemetry().size() == 0) return;
  const std::string path = g_telemetry.NextPath();
  Status s = sim->telemetry().WriteFile(path);
  if (s.ok()) {
    std::printf("telemetry written to %s (%zu samples", path.c_str(),
                sim->telemetry().size());
    if (sim->telemetry().dropped() > 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(sim->telemetry().dropped()));
    }
    std::printf(")\n");
  } else {
    std::printf("FAILED to write telemetry: %s\n", s.ToString().c_str());
  }
}

}  // namespace

void ApplyObservabilityFlags(const Flags& flags) {
  g_trace = Output{flags.GetString("trace", "")};
  g_telemetry = Output{flags.GetString("telemetry", "")};
  g_telemetry_interval =
      Microseconds(flags.GetUint("telemetry_interval_us", 1000));
  g_health = Output{flags.GetString("health", "")};
  g_flight = Output{flags.GetString("flight_dump", "")};
  g_flight_slo_exec_ns = Microseconds(flags.GetUint("flight_slo_us", 0));
  g_flight_busy = flags.GetBool("flight_busy", false);
  g_trace_dropped = 0;
}

std::uint64_t TraceDroppedEvents() { return g_trace_dropped; }

void EnableObservability(sim::Simulation* sim) {
  if (g_trace.active()) sim->tracer().Enable();
  if (g_telemetry.active()) sim->telemetry().Enable(g_telemetry_interval);
  sim::Log& log = sim->log();
  log.set_slo_exec_ns(g_flight_slo_exec_ns);
  log.set_dump_on_busy(g_flight_busy);
  if (g_flight.active()) log.set_dump_path(g_flight.NextPath());
}

void DumpObservability(sim::Simulation* sim) {
  DumpHealth(sim);
  DumpTrace(sim);
  DumpTelemetry(sim);
}

}  // namespace kvcsd::harness
