#include "sim/fault.h"

#include <utility>

#include "sim/log.h"

namespace kvcsd::sim {

std::string_view FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kAppend:
      return "append";
    case FaultOp::kRead:
      return "read";
    case FaultOp::kReset:
      return "reset";
  }
  return "unknown";
}

bool FaultInjector::Hit(std::string_view point) {
  if (crashed_) return true;
  ++total_hits_;
  auto it = hit_counts_.find(point);
  if (it == hit_counts_.end()) {
    it = hit_counts_.emplace(std::string(point), 0).first;
    point_names_.push_back(it->first);
  }
  ++it->second;

  const bool by_global =
      armed_global_hit_ != 0 && total_hits_ == armed_global_hit_;
  const bool by_point = !armed_point_.empty() && point == armed_point_ &&
                        it->second == armed_point_nth_;
  if (by_global || by_point) {
    crash_point_ = std::string(point);
    if (log_ != nullptr) {
      log_->Error("fault", "crash point '" + crash_point_ + "' tripped (hit #" +
                               std::to_string(total_hits_) + ")");
    }
    Crash();
  }
  return crashed_;
}

void FaultInjector::ArmCrashAtPoint(std::string point, std::uint64_t nth) {
  armed_point_ = std::move(point);
  armed_point_nth_ = nth == 0 ? 1 : nth;
}

void FaultInjector::ArmCrashAtHit(std::uint64_t global_hit) {
  armed_global_hit_ = global_hit;
}

void FaultInjector::Crash() {
  if (crashed_) return;
  crashed_ = true;
  // Hooks may mutate SSD state (torn tail); run each exactly once.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks;
  hooks.swap(crash_hooks_);
  for (auto& [token, hook] : hooks) hook();
  if (log_ != nullptr) {
    log_->Error("fault", "power cut" + (crash_point_.empty()
                                            ? std::string(" (manual)")
                                            : " at '" + crash_point_ + "'"));
    log_->Dump("crash", crash_point_);
  }
}

std::uint64_t FaultInjector::hit_count(std::string_view point) const {
  auto it = hit_counts_.find(point);
  return it == hit_counts_.end() ? 0 : it->second;
}

std::uint64_t FaultInjector::AddCrashHook(std::function<void()> hook) {
  const std::uint64_t token = next_hook_token_++;
  crash_hooks_.emplace_back(token, std::move(hook));
  return token;
}

void FaultInjector::RemoveCrashHook(std::uint64_t token) {
  std::erase_if(crash_hooks_,
                [token](const auto& entry) { return entry.first == token; });
}

void FaultInjector::AddErrorRule(ErrorRule rule) {
  rules_.push_back(ArmedRule{std::move(rule)});
}

Status FaultInjector::OnIo(FaultOp op, std::uint32_t zone) {
  if (crashed_) {
    return Status::IoError("simulated power loss: device is off");
  }
  for (ArmedRule& armed : rules_) {
    const ErrorRule& rule = armed.rule;
    if (rule.op != op) continue;
    if (rule.zone >= 0 && static_cast<std::uint32_t>(rule.zone) != zone) {
      continue;
    }
    if (rule.times != 0 && armed.injected >= rule.times) continue;
    ++armed.seen;
    if (armed.seen <= rule.skip) continue;
    if (rule.probability < 1.0 && rng_.NextDouble() >= rule.probability) {
      continue;
    }
    ++armed.injected;
    ++errors_injected_;
    if (log_ != nullptr) {
      log_->Warn("fault", "injected " + std::string(FaultOpName(op)) +
                              " error on zone " + std::to_string(zone) + ": " +
                              rule.message);
    }
    return Status(rule.code, rule.message);
  }
  return Status::Ok();
}

void FaultInjector::ResetForRestart() {
  crashed_ = false;
  armed_point_.clear();
  armed_point_nth_ = 0;
  armed_global_hit_ = 0;
  crash_hooks_.clear();
  rules_.clear();
}

}  // namespace kvcsd::sim
