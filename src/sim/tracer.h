// Span tracer for the simulation: scoped begin/end events on named tracks,
// dumped in Chrome trace_event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev to see the device pipeline laid out on the
// simulated timeline).
//
// Tracing is off by default and every record call is a cheap no-op until
// Enable() — benches turn it on with --trace=<path>. The simulated clock is
// nanoseconds; trace timestamps are emitted in microseconds (the
// trace_event unit) with nanosecond precision preserved as fractions.
//
// Typical use inside a coroutine (the span closes on every co_return path):
//
//   sim::TraceSpan span(sim_, "compaction", "phase1.run_gen");
//   span.Arg("keyspace", ks->name);
//   ... co_await work ...
//   // ~TraceSpan records [construction tick, destruction tick]
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace kvcsd::sim {

class Simulation;

class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1 << 20;

  // Turns recording on. `max_events` bounds memory; once full, further
  // events are counted in dropped() instead of stored.
  void Enable(std::size_t max_events = kDefaultMaxEvents) {
    enabled_ = true;
    max_events_ = max_events;
  }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Interns a track name ("thread" row in the viewer) to a small id.
  // Idempotent; track ids are assigned in first-use order.
  std::uint32_t Track(std::string_view name);

  // One finished span [begin, end] on `track`. Args are attached verbatim
  // as string key/values.
  void CompleteSpan(
      std::uint32_t track, std::string_view name, Tick begin, Tick end,
      std::vector<std::pair<std::string, std::string>> args = {});

  // Flow events tie causally-related spans together across tracks: a
  // FlowBegin inside the producing span and a FlowEnd inside the consuming
  // span, sharing (name, id) — the viewer draws an arrow between them.
  // Emit them at a tick covered by an enclosing 'X' span on the same
  // track, or they have nothing to bind to. `id` is the causal key (we use
  // the command's cmd_id).
  void FlowBegin(std::uint32_t track, std::string_view name, std::uint64_t id,
                 Tick at);
  void FlowEnd(std::uint32_t track, std::string_view name, std::uint64_t id,
               Tick at);

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  // Chrome trace_event JSON ("traceEvents" array of X/M and flow phases,
  // plus "otherData": {"dropped_events": dropped()}).
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    std::uint32_t track;
    char phase;  // 'X' complete span, 's'/'f' flow begin/end
    std::string name;
    Tick begin;
    Tick end;
    std::uint64_t flow_id = 0;  // flow events only
    std::vector<std::pair<std::string, std::string>> args;
  };

  void Flow(std::uint32_t track, char phase, std::string_view name,
            std::uint64_t id, Tick at);

  bool Full() {
    if (events_.size() < max_events_) return false;
    ++dropped_;
    return true;
  }

  bool enabled_ = false;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::vector<std::string> tracks_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

// RAII span: captures the simulated clock at construction and records a
// complete span on destruction. Does nothing when tracing is disabled at
// construction time. Declared in a coroutine frame, the destructor runs at
// whichever co_return exits the scope, stamping the correct end tick.
class TraceSpan {
 public:
  TraceSpan(Simulation* sim, std::string_view track, std::string_view name);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  // Attaches a key/value to the span (no-op when disabled).
  void Arg(std::string_view key, std::string_view value);
  void Arg(std::string_view key, std::uint64_t value);

 private:
  Simulation* sim_ = nullptr;  // nullptr = tracing was off at construction
  std::uint32_t track_ = 0;
  std::string name_;
  Tick begin_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace kvcsd::sim
