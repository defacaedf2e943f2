// The simulation's event ring (DESIGN.md §9): one leveled, fixed-slot ring
// of timestamped events that answers "what happened before the crash".
// Unlike the tracer (bulk span data, dumped at exit) it is always on and
// bounded, so it costs nothing to leave running for a whole bench.
//
// Two kinds of event share the ring:
//  * breadcrumbs — leveled text from the fault injector (armed crash
//    points, injected I/O errors, the power cut itself) and from recovery
//    replay (every step it takes);
//  * command events — one per completed device command (cmd id, opcode,
//    queue, device, exec time, status and the command's latency ledger
//    as of its completion, sim/ledger.h). They are recorded into a fixed
//    slot with no string formatting; text is rendered only when the ring
//    is dumped.
//
// The ring trips a JSON dump — the ring oldest first plus every gauge of
// the telemetry source registry — on three rules: a command's execution
// time exceeds the SLO bound, a command completes kBusy, or the fault
// injector cuts power (the dump then names the crash point). Each
// simulation counts its trips from 1; with a dump path set, trip N writes
// <dump_path>.<N>.json. The ring is owned by the Simulation, not by a
// Device, so it survives Device::Restart: post-crash recovery appends to
// the same ring the pre-crash commands were recorded in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/ledger.h"

namespace kvcsd::sim {

class TelemetrySampler;

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

std::string_view LogLevelName(LogLevel level);

class Log {
 public:
  // Ring slots: breadcrumbs and command events of every device of the
  // simulation share them.
  static constexpr std::size_t kCapacity = 1024;

  // One completed device command.
  struct Command {
    std::uint64_t cmd_id = 0;
    const char* op = "";  // static opcode name (nvme::OpcodeName)
    std::uint32_t queue_id = 0;
    std::uint32_t device = 0;  // DeviceId() of the recording device
    Tick exec_ns = 0;          // handler start -> completion
    StatusCode status = StatusCode::kOk;
    // Up to the completion DMA: the host's layers, sq_wait (SQ residency
    // before the main loop popped it), dispatch (pop -> handler start)
    // and the device's layers of the execution.
    Ledger ledger;
  };

  struct Entry {
    std::uint64_t seq = 0;  // monotonic across ring evictions
    Tick tick = 0;
    LogLevel level = LogLevel::kInfo;
    bool is_command = false;
    std::string component;  // breadcrumbs only
    std::string message;    // breadcrumbs only
    Command command;        // command events only
  };

  // The clock stamps entries with simulated time; the gauge registry fills
  // a dump's "utilization" section. The owning Simulation binds both.
  void BindClock(std::function<Tick()> clock) { clock_ = std::move(clock); }
  void BindGauges(const TelemetrySampler* gauges) { gauges_ = gauges; }

  // --- the trip settings (bench flags --flight_slo_us, --flight_busy,
  // --flight_dump) ---
  // Dump when a command's exec time exceeds this bound; 0 disables.
  void set_slo_exec_ns(Tick bound) { slo_exec_ns_ = bound; }
  // Dump when a command completes kBusy (compaction backpressure).
  void set_dump_on_busy(bool on) { dump_on_busy_ = on; }
  // File prefix for dumps; empty keeps them in memory only.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }

  void Write(LogLevel level, std::string_view component, std::string message);
  void Debug(std::string_view component, std::string message) {
    Write(LogLevel::kDebug, component, std::move(message));
  }
  void Info(std::string_view component, std::string message) {
    Write(LogLevel::kInfo, component, std::move(message));
  }
  void Warn(std::string_view component, std::string message) {
    Write(LogLevel::kWarn, component, std::move(message));
  }
  void Error(std::string_view component, std::string message) {
    Write(LogLevel::kError, component, std::move(message));
  }

  // Stable id for a device name, for Command::device; a restarted device
  // asking with the same name gets the same id.
  std::uint32_t DeviceId(std::string_view name);
  void Record(const Command& command);
  // Non-null when `command` trips an SLO rule; the string is the dump
  // reason ("slo_exec" / "busy").
  const char* BreachReason(const Command& command) const;

  // Serializes the ring (oldest first) plus the gauge registry, counts the
  // trip, retains the document as last_dump() and writes it to
  // <dump_path>.<trip>.json when a dump path is set. Returns the JSON.
  std::string Dump(std::string_view reason,
                   std::string_view crash_point = {});
  std::uint64_t trips() const { return trips_; }
  const std::string& last_dump() const { return last_dump_; }

  // Oldest-first copy of the surviving entries.
  std::vector<Entry> Entries() const;
  std::size_t size() const { return ring_.size(); }
  // Total accepted events, including entries the ring has since evicted.
  std::uint64_t total_written() const { return next_seq_; }

  // One "[tick] LEVEL component: message" line per entry.
  std::string ToString() const;
  void Clear();

 private:
  Entry& NextSlot(LogLevel level);
  // "" for an id DeviceId() never handed out.
  std::string_view DeviceName(std::uint32_t id) const;

  std::function<Tick()> clock_;
  const TelemetrySampler* gauges_ = nullptr;
  Tick slo_exec_ns_ = 0;
  bool dump_on_busy_ = false;
  std::string dump_path_;
  std::vector<Entry> ring_;  // grows to kCapacity, then overwrites
  std::size_t next_ = 0;     // overwrite cursor once full
  std::uint64_t next_seq_ = 0;
  std::vector<std::string> devices_;
  std::uint64_t trips_ = 0;
  std::string last_dump_;
};

}  // namespace kvcsd::sim
