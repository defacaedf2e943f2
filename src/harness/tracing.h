// Process-wide observability requests for bench binaries.
//
// Benches pass --trace=<path>, --telemetry=<path> (sampled every
// --telemetry_interval_us=<n>, default 1000), --health=<path> and the
// event ring's trip settings --flight_slo_us=<n>, --flight_busy and
// --flight_dump=<path>; main() forwards them once via
// ApplyObservabilityFlags. Every harness testbed brackets its simulation
// with one pair: EnableObservability at construction turns on the tracer
// and the telemetry sampler when requested and applies the trip settings
// to the simulation's event ring (sim/log.h); DumpObservability at
// destruction writes the simulation's health snapshot (every gauge of the
// telemetry source registry, as {"tick", "gauges"} JSON), trace and
// telemetry. Each output is numbered per simulation: the first file is
// <path>, later ones <path>.1, <path>.2, ... (benches that sweep a
// parameter build one testbed per point). An output with nothing to write
// (no traced events, no samples, no gauge source) writes no file and takes
// no number. Ring dumps are numbered the same way, per simulation that
// enables them, and then by the simulation's trip count:
// <flight_dump>.<trip>.json, <flight_dump>.1.<trip>.json, ... Load trace
// files in chrome://tracing or https://ui.perfetto.dev; feed trace and
// telemetry to tools/analyze_trace.py for the latency breakdown.
#pragma once

#include <cstdint>

#include "harness/flags.h"
#include "sim/simulation.h"

namespace kvcsd::harness {

// Every bench main calls this right after parsing flags. Unset flags turn
// the matching output off; calling it again resets the file numbering.
void ApplyObservabilityFlags(const Flags& flags);

void EnableObservability(sim::Simulation* sim);
void DumpObservability(sim::Simulation* sim);

// Events the tracer dropped at its cap, summed over every trace written
// since ApplyObservabilityFlags. Reports of traced runs carry it as
// "trace.dropped_events": a capped trace is missing spans and flows.
std::uint64_t TraceDroppedEvents();

}  // namespace kvcsd::harness
