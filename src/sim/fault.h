// Fault injection for the simulated device stack.
//
// Two mechanisms, both deterministic under a fixed seed:
//
//  * Crash points. Code on the device paths calls Hit("name") at the
//    instants where a power cut would be interesting (between the two log
//    appends of a flush, between the metadata-zone reset and the rewrite,
//    either side of the compaction commit, ...). Every call is counted, so
//    an unarmed "dry run" of a workload enumerates the reachable points;
//    arming by name+count or by global hit index then replays the same
//    workload and cuts power at exactly one of them. After the crash every
//    SSD operation fails until the injector is reset for restart — the
//    byte state that survives is what recovery gets to work with.
//
//  * I/O error rules. OnIo() consults match rules (operation, optional
//    zone, probability, skip/times windows) and returns the rule's status
//    when one fires, modelling transient or persistent media errors
//    without powering the device off.
//
// The injector also owns the "torn tail" model: on Crash() it runs the
// registered crash hooks, and ZnsSsd registers one that truncates the
// in-flight last append to a configurable fraction — the classic
// power-loss artifact that log recovery must tolerate. After the hooks it
// writes the power cut into the bound event ring and trips the ring's one
// crash dump.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace kvcsd::sim {

class Log;

enum class FaultOp : std::uint8_t {
  kAppend = 0,
  kRead,
  kReset,
};

std::string_view FaultOpName(FaultOp op);

// One error-injection rule. A rule fires on operations matching (op,
// zone); `skip` matching operations pass through first, then each match
// fails with `probability`, at most `times` times (0 = no limit).
struct ErrorRule {
  FaultOp op = FaultOp::kAppend;
  std::int64_t zone = -1;  // -1 matches any zone
  double probability = 1.0;
  std::uint64_t skip = 0;
  std::uint64_t times = 1;
  StatusCode code = StatusCode::kIoError;
  std::string message = "injected I/O error";
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 42) : rng_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- crash points ---

  // Registers one pass through the named crash point and returns whether
  // the device is (now) crashed. Call sites abort their operation with an
  // I/O error when this returns true.
  bool Hit(std::string_view point);

  // Cuts power the `nth` time (1-based) `point` is hit.
  void ArmCrashAtPoint(std::string point, std::uint64_t nth = 1);
  // Cuts power at the k-th (1-based) crash-point hit overall, regardless
  // of name — the sweep driver's way to cover every reachable point.
  void ArmCrashAtHit(std::uint64_t global_hit);

  // Immediate power cut: marks the injector crashed, runs the registered
  // crash hooks (e.g. the SSD's torn-tail truncation) once, then dumps the
  // bound event ring.
  void Crash();

  bool crashed() const { return crashed_; }
  // Name of the point that fired the crash ("" for a manual Crash()).
  const std::string& crash_point() const { return crash_point_; }
  // Total crash-point hits observed (counting stops once crashed).
  std::uint64_t hits() const { return total_hits_; }
  std::uint64_t hit_count(std::string_view point) const;
  // Every point name seen so far, in first-hit order.
  const std::vector<std::string>& points() const { return point_names_; }

  // Hooks run exactly once, synchronously, inside Crash(). Returns a
  // token for RemoveCrashHook; an owner whose lifetime can end before the
  // injector's must deregister, or Crash() calls into freed memory.
  std::uint64_t AddCrashHook(std::function<void()> hook);
  // Idempotent: tokens already consumed by Crash()/ResetForRestart() (or
  // never issued) are ignored.
  void RemoveCrashHook(std::uint64_t token);

  // --- I/O error injection ---

  void AddErrorRule(ErrorRule rule);
  // Consulted by ZnsSsd at the top of Append/Read/Reset. Returns the
  // matching rule's status, a power-off error when crashed, or OK.
  Status OnIo(FaultOp op, std::uint32_t zone);
  std::uint64_t errors_injected() const { return errors_injected_; }

  // --- torn tail ---

  // Fraction (0..1) of the in-flight last append that survives a crash;
  // negative disables tearing. A fraction < 1 always drops at least one
  // byte of the torn append.
  void set_torn_tail_keep(double fraction) { torn_tail_keep_ = fraction; }
  double torn_tail_keep() const { return torn_tail_keep_; }

  // --- structured logging ---

  // Binds the simulation's event ring (log.h). The injector records armed
  // crashes, injected I/O errors and the power cut itself, and trips the
  // ring's crash dump, which names the crash point. The ring must outlive
  // the injector's use.
  void set_log(Log* log) { log_ = log; }
  Log* log() const { return log_; }

  // Prepares the injector for a Device::Restart over the surviving bytes:
  // clears the crashed flag, armed crash points, crash hooks, and error
  // rules. Hit counters and the recorded crash point survive, so the
  // caller can still read what happened.
  void ResetForRestart();

 private:
  Rng rng_;
  Log* log_ = nullptr;
  bool crashed_ = false;
  std::string crash_point_;

  std::uint64_t total_hits_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> hit_counts_;
  std::vector<std::string> point_names_;

  std::string armed_point_;
  std::uint64_t armed_point_nth_ = 0;
  std::uint64_t armed_global_hit_ = 0;

  std::vector<std::pair<std::uint64_t, std::function<void()>>> crash_hooks_;
  std::uint64_t next_hook_token_ = 1;

  struct ArmedRule {
    ErrorRule rule;
    std::uint64_t seen = 0;      // matching operations observed
    std::uint64_t injected = 0;  // failures delivered
  };
  std::vector<ArmedRule> rules_;
  std::uint64_t errors_injected_ = 0;

  double torn_tail_keep_ = -1.0;
};

}  // namespace kvcsd::sim
