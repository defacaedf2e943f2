// NVMe-style submission/completion queues over a PCIe link model.
//
// The host side has one entry point, QueuePair::Submit(): it DMAs a batch
// of one or more commands onto an SQ under a single doorbell, and the
// device's answers come back on the submitter's CQ ring. Data movement in
// both directions is charged to the PCIe link; the device side services
// commands by popping the submission channels — exactly the client-library
// / device-server split the paper describes (§VI: "the translation and
// sending of the requests take place in userspace and completely bypass
// the host OS kernel").
//
// Two layers:
//
//   QueuePair — one SQ/CQ pair, a member of a QueueSet (shares the set's
//       PCIe link). Doorbell batching: Submit() rings one doorbell for K
//       commands, paying `request_latency` once instead of K times.
//   QueueSet  — N pairs multiplexed over one PCIe link plus the device-side
//       arbitration point: NextCommand() serves all pairs round-robin, so
//       no queue can starve while another is full.
//
// Completion delivery (ReplyState): Complete() pushes the completed state
// onto the CQ ring named at submission (a channel). The submitter reaps it
// there — the client runs one reactor coroutine per ring, which sets the
// state's `done` event — so one reactor parks per client instead of one
// awaiter per command.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nvme/command.h"
#include "sim/ledger.h"
#include "sim/resources.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::nvme {

struct PcieConfig {
  double bytes_per_sec = 12e9;          // Gen3 x16 effective
  Tick request_latency = Microseconds(5);   // doorbell + DMA setup
  Tick completion_latency = Microseconds(5);
};

struct QueueSetConfig {
  PcieConfig pcie;
  // Prefixes the PCIe bandwidth/meter names ("pcie.h2d", "pcie.d2h"), the
  // set's trace tracks ("nvme", "nvme.cq") and its stage histograms
  // ("client.stage.{submit,complete}_ns"). Multi-device simulations give
  // each set a shard prefix ("shard0.") so link utilization, stage
  // latencies and completion spans attribute per device; empty keeps
  // legacy names.
  std::string name_prefix;
  std::uint32_t num_queues = 1;
  // Max commands submitted-and-uncompleted per pair; 0 = unbounded.
  // Submitters block (before the submission DMA) until a slot frees.
  std::uint32_t sq_depth_cap = 0;
};

class QueuePair;
class QueueSet;

// Shared completion slot for one in-flight command. The submitter holds a
// reference (through a client-level future), the in-flight Incoming holds
// another until the device completes it.
struct ReplyState {
  explicit ReplyState(sim::Simulation* sim) : done(sim) {}

  sim::Event done;
  Completion completion;
  bool completed = false;
  // Causal identity, for reactors that record latency/tracing on reap.
  std::uint64_t cmd_id = 0;
  Opcode opcode = Opcode::kKvStore;
  Tick submit_begin = 0;     // host-side stamp (command.submit_tick)
  std::uint32_t queue_id = 0;
  // The command's latency ledger, from submit_begin on: the submitter's
  // bookings up to the SQ enqueue, then the device's, the completion DMA
  // and the reap.
  sim::Ledger ledger;
  // Complete() pushes this state onto the ring; its reaper sets `done`.
  sim::Channel<std::shared_ptr<ReplyState>>* cq_ring = nullptr;
};

using CqRing = sim::Channel<std::shared_ptr<ReplyState>>;

class QueuePair {
 public:
  // Host side: DMAs `commands` onto this SQ behind one doorbell and returns
  // their reply states once they are queued, without waiting for
  // execution; each completion is pushed to `ring`. The per-command
  // `request_latency` (doorbell + DMA setup) is paid once per doorbell;
  // the byte service time is unchanged. With a depth cap the batch is
  // split into cap-sized chunks (each chunk still amortizes within
  // itself). Safe for any number of concurrent submitters. A submitter
  // that keeps a ledger for the batch (the client) has every command's
  // ledger start as a copy of it.
  sim::Task<std::vector<std::shared_ptr<ReplyState>>> Submit(
      std::vector<Command> commands, CqRing* ring);

  // Device side: one submitted command plus its completion route.
  struct Incoming {
    Command command;
    std::shared_ptr<ReplyState> reply;
    // Causal id / opcode copies that outlive moves of `command`.
    std::uint64_t cmd_id = 0;
    Opcode opcode = Opcode::kKvStore;
    std::uint32_t queue_id = 0;
  };

  // Device-side completion path (charged to the PCIe link).
  sim::Task<void> Complete(Incoming incoming, Completion completion);

  // Submitted-but-not-yet-popped commands (the SQ depth gauge).
  std::size_t sq_depth() const { return submissions_.size(); }
  // Submitted, completion not yet posted.
  std::uint64_t inflight() const { return submitted_ - completed_; }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t host_to_device_bytes() const {
    return host_to_device_->total_bytes();
  }
  std::uint64_t device_to_host_bytes() const {
    return device_to_host_->total_bytes();
  }

  std::uint32_t id() const { return id_; }
  sim::Simulation* sim() const { return sim_; }

 private:
  friend class QueueSet;

  // Pairs are built by their set: they share its PCIe link and depth cap.
  QueuePair(sim::Simulation* sim, QueueSet* set, std::uint32_t id,
            sim::BandwidthResource* h2d, sim::BandwidthResource* d2h,
            std::uint32_t depth_cap);

  // Enqueues one DMA-delivered command onto the SQ (no suspension);
  // `host` is the submitter's ledger, null when it keeps none.
  void Enqueue(Command command, std::shared_ptr<ReplyState> state,
               const sim::Ledger* host);
  std::optional<Incoming> TryTake() { return submissions_.TryPop(); }

  sim::Simulation* sim_;
  QueueSet* set_;
  std::uint32_t id_ = 0;
  // Trace track names ("nvme", "nvme.cq"), carrying the owning set's
  // name_prefix so per-device spans stay separable in multi-device sims.
  std::string trk_nvme_ = "nvme";
  std::string trk_nvme_cq_ = "nvme.cq";
  sim::BandwidthResource* host_to_device_;
  sim::BandwidthResource* device_to_host_;
  // Depth cap (null = unbounded). Acquired per command before the
  // submission DMA, released when its completion has DMA'd back.
  std::uint32_t config_depth_cap_ = 0;
  // The set's "client.stage.{submit,complete}_ns" stage histograms.
  sim::Histogram* submit_ns_;
  sim::Histogram* complete_ns_;
  std::unique_ptr<sim::Semaphore> depth_slots_;
  sim::Channel<Incoming> submissions_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
};

// N SQ/CQ pairs sharing one PCIe link, plus the device-side arbitration
// point. Hosts submit to a specific pair (pair(i)->Submit); the device
// services all pairs through NextCommand() under the configured policy.
class QueueSet {
 public:
  QueueSet(sim::Simulation* sim, const QueueSetConfig& config);

  std::uint32_t num_queues() const {
    return static_cast<std::uint32_t>(pairs_.size());
  }
  QueuePair* pair(std::uint32_t id) { return pairs_[id].get(); }
  const QueuePair* pair(std::uint32_t id) const { return pairs_[id].get(); }

  // Device side: the next command across ALL pairs, round-robin: one
  // command per non-empty queue in rotation, so a non-empty queue is never
  // skipped indefinitely — a full competing queue cannot starve its
  // neighbors.
  sim::Task<QueuePair::Incoming> NextCommand();

  // Routes the completion back through the pair the command arrived on.
  sim::Task<void> Complete(QueuePair::Incoming incoming,
                           Completion completion) {
    return pairs_[incoming.queue_id]->Complete(std::move(incoming),
                                               std::move(completion));
  }

  // Aggregates across pairs (the device-level gauges).
  std::size_t sq_depth() const;
  std::uint64_t inflight() const;
  std::uint64_t submitted() const;
  std::uint64_t completed() const;
  std::uint64_t host_to_device_bytes() const {
    return host_to_device_.total_bytes();
  }
  std::uint64_t device_to_host_bytes() const {
    return device_to_host_.total_bytes();
  }

  // Per-activity windowed occupancy of the shared PCIe link, one meter per
  // direction (link-equivalents: 1.0 = direction saturated for the window).
  const sim::ResourceMeter& h2d_meter() const { return h2d_meter_; }
  const sim::ResourceMeter& d2h_meter() const { return d2h_meter_; }

  const QueueSetConfig& config() const { return config_; }
  sim::Simulation* sim() const { return sim_; }

 private:
  friend class QueuePair;

  // Called by a pair on every SQ push: one work token per queued command.
  void NotifyWork() { work_.Release(); }

  sim::Simulation* sim_;
  QueueSetConfig config_;
  sim::BandwidthResource host_to_device_;
  sim::BandwidthResource device_to_host_;
  sim::ResourceMeter h2d_meter_;
  sim::ResourceMeter d2h_meter_;
  std::vector<std::unique_ptr<QueuePair>> pairs_;
  // Counts queued-but-unserved commands across all pairs; NextCommand()
  // acquires one token per command so it only scans when work exists.
  sim::Semaphore work_;
  std::uint32_t arb_cursor_ = 0;  // next queue to consider
};

}  // namespace kvcsd::nvme
