#include "nvme/queue.h"

#include <algorithm>

#include "sim/simulation.h"
#include "sim/tracer.h"

namespace kvcsd::nvme {

QueuePair::QueuePair(sim::Simulation* sim, QueueSet* set, std::uint32_t id,
                     sim::BandwidthResource* h2d, sim::BandwidthResource* d2h,
                     std::uint32_t depth_cap)
    : sim_(sim),
      set_(set),
      id_(id),
      host_to_device_(h2d),
      device_to_host_(d2h),
      config_depth_cap_(depth_cap),
      submit_ns_(&sim->stats().histogram(set->config_.name_prefix +
                                         "client.stage.submit_ns")),
      complete_ns_(&sim->stats().histogram(set->config_.name_prefix +
                                           "client.stage.complete_ns")),
      submissions_(sim) {
  if (!set->config_.name_prefix.empty()) {
    trk_nvme_ = set->config_.name_prefix + trk_nvme_;
    trk_nvme_cq_ = set->config_.name_prefix + trk_nvme_cq_;
  }
  if (depth_cap > 0) {
    depth_slots_ = std::make_unique<sim::Semaphore>(sim, depth_cap);
  }
}

void QueuePair::Enqueue(Command command, std::shared_ptr<ReplyState> state,
                        const sim::Ledger* host) {
  Incoming incoming;
  incoming.cmd_id = command.cmd_id;
  incoming.opcode = command.opcode;
  incoming.queue_id = id_;
  const Tick now = sim_->Now();
  // An unstamped command's round trip starts at its enqueue.
  const Tick prepare_begin = command.submit_tick ? command.submit_tick : now;
  state->ledger = host != nullptr && command.submit_tick != 0
                      ? *host
                      : sim::Ledger(prepare_begin);
  state->ledger.Book(sim::Layer::kPcieH2d, now);
  submit_ns_->Record(state->ledger.Sum());
  state->cmd_id = command.cmd_id;
  state->opcode = command.opcode;
  state->queue_id = id_;
  state->submit_begin = prepare_begin;
  incoming.command = std::move(command);
  incoming.reply = std::move(state);
  submissions_.Push(std::move(incoming));
  set_->NotifyWork();
}

sim::Task<std::vector<std::shared_ptr<ReplyState>>> QueuePair::Submit(
    std::vector<Command> commands, CqRing* ring) {
  assert(ring != nullptr);
  sim::Ledger* host = co_await sim::CurrentLedger();
  std::vector<std::shared_ptr<ReplyState>> states;
  states.reserve(commands.size());
  std::size_t next = 0;
  while (next < commands.size()) {
    // With a depth cap, chunk to at most `cap` commands per doorbell: a
    // chunk never waits on permits that only its own DMA could free, so
    // acquiring them (as earlier in-flight commands complete) is safe.
    std::size_t chunk = commands.size() - next;
    if (depth_slots_) {
      chunk = std::min<std::size_t>(chunk, config_depth_cap_);
      for (std::size_t i = 0; i < chunk; ++i) {
        co_await depth_slots_->Acquire();
      }
      if (host != nullptr) host->Book(sim::Layer::kHostQueue, sim_->Now());
    }
    const Tick begin = sim_->Now();
    std::uint64_t wire = 0;
    for (std::size_t i = next; i < next + chunk; ++i) {
      if (commands[i].submit_tick == 0) commands[i].submit_tick = begin;
      wire += CommandWireSize(commands[i]);
    }
    submitted_ += chunk;
    // The span covers the submission DMA only; the submitter's reactor
    // records the round trip when it reaps the completion. A lone
    // command's span is named for its opcode and carries its causal id.
    const bool lone = commands.size() == 1;
    sim::TraceSpan span(sim_, trk_nvme_,
                        lone ? OpcodeName(commands[next].opcode)
                             : "batch_submit");
    if (!lone) {
      span.Arg("count", static_cast<std::uint64_t>(chunk));
    } else if (commands[next].cmd_id != 0) {
      span.Arg("cmd_id", commands[next].cmd_id);
    }
    span.Arg("wire_bytes", wire);
    // One doorbell for the whole chunk: a single link operation pays
    // `request_latency` once, then streams every command's bytes. Batches
    // are homogeneous in practice, so the first opcode classes the chunk.
    co_await host_to_device_->Transfer(
        wire, ActivityForOpcode(commands[next].opcode));
    for (std::size_t i = next; i < next + chunk; ++i) {
      // NOTE: named + std::make_shared, never a prvalue temporary — see
      // the "GCC 12 pitfall" note in sim/task.h.
      auto state = std::make_shared<ReplyState>(sim_);
      state->cq_ring = ring;
      states.push_back(state);
      Enqueue(std::move(commands[i]), std::move(state), host);
    }
    next += chunk;
  }
  co_return states;
}

sim::Task<void> QueuePair::Complete(Incoming incoming, Completion completion) {
  ++completed_;
  const Tick begin = sim_->Now();
  const std::uint64_t wire = CompletionWireSize(completion);
  // Hand the payload to the submitter before suspending: the submitter
  // only wakes after the ring push below, but moving first keeps the
  // data's lifetime independent of this frame.
  std::shared_ptr<ReplyState> reply = std::move(incoming.reply);
  reply->completion = std::move(completion);
  co_await device_to_host_->Transfer(wire, ActivityForOpcode(incoming.opcode));
  const Tick end = sim_->Now();
  complete_ns_->Record(end - begin);
  if (sim_->tracer().enabled() && incoming.cmd_id != 0) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_nvme_cq_), "complete", begin, end,
        {{"cmd_id", std::to_string(incoming.cmd_id)},
         {"op", OpcodeName(incoming.opcode)},
         {"q", std::to_string(incoming.queue_id)}});
  }
  if (depth_slots_) depth_slots_->Release();
  // Whatever the device left unbooked before the DMA is `other`, so the
  // reap is only the ring -> reactor hop.
  reply->ledger.Book(sim::Layer::kOther, end);
  reply->completed = true;
  CqRing* ring = reply->cq_ring;
  ring->Push(std::move(reply));
}

QueueSet::QueueSet(sim::Simulation* sim, const QueueSetConfig& config)
    : sim_(sim),
      config_(config),
      host_to_device_(sim, config.name_prefix + "pcie.h2d",
                      config.pcie.bytes_per_sec, config.pcie.request_latency,
                      {sim::Layer::kPcieH2d, sim::Layer::kPcieH2d}),
      device_to_host_(sim, config.name_prefix + "pcie.d2h",
                      config.pcie.bytes_per_sec,
                      config.pcie.completion_latency,
                      {sim::Layer::kPcieD2h, sim::Layer::kPcieD2h}),
      h2d_meter_(sim, config.name_prefix + "pcie.h2d", 1.0),
      d2h_meter_(sim, config.name_prefix + "pcie.d2h", 1.0),
      work_(sim, 0) {
  host_to_device_.set_meter(&h2d_meter_);
  device_to_host_.set_meter(&d2h_meter_);
  const std::uint32_t n = std::max<std::uint32_t>(config.num_queues, 1);
  pairs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pairs_.emplace_back(new QueuePair(sim, this, i, &host_to_device_,
                                      &device_to_host_,
                                      config.sq_depth_cap));
  }
}

sim::Task<QueuePair::Incoming> QueueSet::NextCommand() {
  // One token per queued command: only scan when work exists.
  co_await work_.Acquire();
  const std::uint32_t n = num_queues();
  // Round-robin: take one command from the first non-empty queue at or
  // after the cursor, then advance past it.
  for (;;) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t q = (arb_cursor_ + i) % n;
      if (auto item = pairs_[q]->TryTake()) {
        arb_cursor_ = (q + 1) % n;
        co_return std::move(*item);
      }
    }
    assert(false && "work token without a queued command");
  }
}

std::size_t QueueSet::sq_depth() const {
  std::size_t total = 0;
  for (const auto& pair : pairs_) total += pair->sq_depth();
  return total;
}

std::uint64_t QueueSet::inflight() const {
  std::uint64_t total = 0;
  for (const auto& pair : pairs_) total += pair->inflight();
  return total;
}

std::uint64_t QueueSet::submitted() const {
  std::uint64_t total = 0;
  for (const auto& pair : pairs_) total += pair->submitted();
  return total;
}

std::uint64_t QueueSet::completed() const {
  std::uint64_t total = 0;
  for (const auto& pair : pairs_) total += pair->completed();
  return total;
}

}  // namespace kvcsd::nvme
