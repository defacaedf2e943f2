// KV-CSD host client library — the public API of this repository.
//
// This is the "lightweight client library" of the paper (Fig. 1, §VI): a
// userspace driver that packs key-value calls into NVMe commands and DMAs
// them to the device, bypassing the host kernel entirely. All methods are
// simulation coroutines; a typical application process looks like:
//
//   sim::Task<void> App(client::Client* db) {
//     auto ks = (co_await db->CreateKeyspace("particles")).value();
//     auto writer = ks.NewBulkWriter();
//     for (...) co_await writer.Add(key, value);
//     co_await writer.Drain();
//     co_await ks.Compact();          // returns immediately (offloaded)
//     co_await ks.WaitCompaction();   // barrier before querying
//     co_await ks.CreateSecondaryIndexF32("energy", 28);
//     std::vector<std::pair<std::string, std::string>> hits;
//     co_await ks.QuerySecondaryRangeF32("energy", 1.2f, 9e9f, 0, &hits);
//   }
//
// Host path (DESIGN.md §11): every command, sync or async, goes through one
// submit path under one bounded in-flight window. PutAsync/GetAsync return
// a Future<T> right after the submission DMA; a per-client reactor
// coroutine reaps completions off the client's CQ ring and resolves the
// future. A sync call (Put, Get, ...) is the same submission, a batch of
// one, awaited — so many commands ride the wire concurrently, kept in a
// bounded FutureWindow:
//
//   client::FutureWindow<Status> window(depth);
//   for (...) {
//     co_await window.Reserve();         // reaps the oldest while full
//     if (!window.status().ok()) break;
//     window.Push(co_await ks.PutAsync(key, value));
//   }
//   Status s = co_await window.Drain();  // the first error, if any
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hostenv/cost_model.h"
#include "nvme/command.h"
#include "nvme/log_page.h"
#include "nvme/queue.h"
#include "nvme/skey.h"
#include "sim/resources.h"
#include "sim/task.h"

namespace kvcsd::client {

// Bulk-put frame capacity (the paper's prototype uses 128 KB messages).
inline constexpr std::uint64_t kBulkFrameBytes = KiB(128);

// Retry backoff: the wait before retry `retry` (0-based) is
// kRetryBackoffBase << retry, capped at kRetryBackoffCap.
inline constexpr Tick kRetryBackoffBase = Microseconds(50);
inline constexpr Tick kRetryBackoffCap = Milliseconds(5);
Tick RetryBackoff(std::uint32_t retry);

struct ClientConfig {
  // --- host path (DESIGN.md §11) ---
  // Admission window: submission blocks once this many commands from this
  // client, sync or async, are submitted-but-unreaped (bounds memory and
  // queue depth).
  std::uint32_t max_inflight = 64;
  // Pin every command from this client to one SQ of the queue set;
  // kAnyQueue spreads submissions round-robin across all pairs.
  static constexpr std::uint32_t kAnyQueue = 0xffffffffu;
  std::uint32_t queue_id = kAnyQueue;
  // Prefix for this client's stats ("client." -> client.cmd.put_ns).
  // Multi-tenant benches use distinct prefixes (client.t3.) so per-tenant
  // latency distributions stay separable.
  std::string stats_prefix = "client.";
};

class Client;

// Rows a scan, secondary query or select returns: (key, value) pairs.
using Rows = std::vector<std::pair<std::string, std::string>>;

// Awaitable handle to one in-flight command: its shared reply state plus
// the decoder that turns the completion into a T (a Status, a value, rows,
// aggregate scalars, the health page). Copyable (shared state); Await() the
// same future once — the completion payload is moved out.
template <typename T>
class Future {
 public:
  using Decoder = T (*)(nvme::Completion);

  Future() = default;

  bool valid() const { return state_ != nullptr; }
  // True once the device's completion has DMA'd back; Await resumes as
  // soon as the client's reactor reaps it.
  bool completed() const { return state_ != nullptr && state_->completed; }

  sim::Task<T> Await() { return AwaitImpl(state_, decode_); }
  // The command's latency ledger (sim/ledger.h): its layers add up to
  // the round trip once Await() has returned.
  const sim::Ledger& ledger() const { return state_->ledger; }

 private:
  friend class Client;
  friend class KeyspaceHandle;
  Future(std::shared_ptr<nvme::ReplyState> state, Decoder decode)
      : state_(std::move(state)), decode_(decode) {}
  // Static so the coroutine frame owns its own reference and the future
  // object itself may die while the await is pending.
  static sim::Task<T> AwaitImpl(std::shared_ptr<nvme::ReplyState> state,
                                Decoder decode) {
    co_await state->done.Wait();
    co_return decode(std::move(state->completion));
  }
  std::shared_ptr<nvme::ReplyState> state_;
  Decoder decode_ = nullptr;
};

// A bounded window of in-flight futures, reaped oldest first. Reserve()
// before issuing a command, Push() its future, Drain() at the end. Every
// result is handed to `on_result` (if given) in issue order; the first
// non-Ok one is kept in status() while the rest are still reaped.
template <typename T>
class FutureWindow {
 public:
  explicit FutureWindow(std::size_t depth,
                        std::function<void(T&)> on_result = nullptr)
      : depth_(std::max<std::size_t>(depth, 1)),
        on_result_(std::move(on_result)) {}

  std::size_t size() const { return inflight_.size(); }
  // The first non-Ok result reaped since the last Drain; Ok while none.
  const Status& status() const { return first_error_; }

  // Reaps the oldest futures until fewer than `depth` are in flight.
  sim::Task<void> Reserve() {
    while (inflight_.size() >= depth_) co_await ReapOldest();
  }
  void Push(Future<T> future) { inflight_.push_back(std::move(future)); }
  // Reaps every future; returns the first error and clears it.
  sim::Task<Status> Drain() {
    while (!inflight_.empty()) co_await ReapOldest();
    co_return std::exchange(first_error_, Status::Ok());
  }

 private:
  static Status StatusOf(const Status& status) { return status; }
  template <typename U>
  static Status StatusOf(const Result<U>& result) {
    return result.status();
  }

  sim::Task<void> ReapOldest() {
    Future<T> oldest = std::move(inflight_.front());
    inflight_.pop_front();
    T result = co_await oldest.Await();
    if (first_error_.ok()) first_error_ = StatusOf(result);
    if (on_result_) on_result_(result);
  }

  std::size_t depth_;
  std::function<void(T&)> on_result_;
  std::deque<Future<T>> inflight_;
  Status first_error_ = Status::Ok();
};

// A handle to one keyspace. Cheap to copy.
class KeyspaceHandle {
 public:
  KeyspaceHandle() = default;

  std::uint64_t id() const { return id_; }
  bool valid() const { return client_ != nullptr; }

  // --- writes ---
  sim::Task<Status> Put(const std::string& key, const std::string& value);
  // Async variant: returns after the submission DMA; the device's answer
  // arrives through the future.
  sim::Task<Future<Status>> PutAsync(const std::string& key,
                                     const std::string& value);
  // Batched async puts: every pair ships in one doorbell ring (the
  // per-command request latency is paid once per batch).
  sim::Task<std::vector<Future<Status>>> PutBatchAsync(
      std::vector<std::pair<std::string, std::string>> pairs);

  // Blind point delete: writes a tombstone; deleting an absent key is Ok.
  // Valid while the keyspace is WRITABLE and after compaction (delta
  // mode); kBusy while a (re)compaction is running.
  sim::Task<Status> Delete(const std::string& key);
  sim::Task<Future<Status>> DeleteAsync(const std::string& key);

  // Accumulates pairs into bulk frames of kBulkFrameBytes; each full
  // frame ships as one NVMe command and Add() returns its status.
  class BulkWriter {
   public:
    sim::Task<Status> Add(const std::string& key, const std::string& value);
    // Ships the partial frame, if any, and returns its status: the barrier
    // before Compact()/Sync(). The writer stays usable; Add() after a
    // Drain() starts a new frame.
    sim::Task<Status> Drain();
    std::uint64_t frames_sent() const { return frames_sent_; }

   private:
    friend class KeyspaceHandle;
    BulkWriter(Client* client, std::uint64_t keyspace_id)
        : client_(client), keyspace_id_(keyspace_id) {}
    // Ships the current frame as one kBulkStore command.
    sim::Task<Status> Flush();
    Client* client_;
    std::uint64_t keyspace_id_;
    std::string frame_;
    std::uint64_t frames_sent_ = 0;
  };
  BulkWriter NewBulkWriter() { return BulkWriter(client_, id_); }

  // Explicit fsync: persists buffered PUTs to the device's log zones
  // before returning (paper §VI; most bulk-load pipelines skip this and
  // rely on checkpoint-restart instead).
  //
  // Status classification: kIoError and kBusy are RETRYABLE — the write
  // may not have reached flash, but the request is safe to reissue
  // (Sync/Put are idempotent at the log level). Anything else
  // (kInvalidArgument, kNotFound, kOutOfSpace, ...) is FATAL for the
  // request: retrying cannot succeed. Status::IsRetryable() encodes the
  // split.
  sim::Task<Status> Sync();

  // Sync with bounded retries on retryable failures (transient injected
  // I/O errors), sleeping RetryBackoff() between attempts and
  // counting each retry in "<stats_prefix>sync.retries". The device
  // re-queues a failed flush batch into the keyspace's write buffer, so
  // the retry re-flushes the same entries and re-persists — success here
  // means everything put so far IS durable, not merely that the retry
  // found an empty buffer.
  sim::Task<Status> SyncWithRetry(std::uint32_t attempts = 3);

  // --- lifecycle ---
  // Triggers compaction; the device runs it asynchronously and this call
  // returns as soon as the command completes.
  sim::Task<Status> Compact();
  // Fused variant (paper §V future work): compaction plus the given
  // secondary indexes, built in one pass without re-reading the keyspace.
  sim::Task<Status> CompactWithIndexes(
      std::vector<nvme::SecondaryIndexSpec> specs);
  // Blocks until the device reports the keyspace COMPACTED.
  sim::Task<Status> WaitCompaction();

  // --- secondary indexes ---
  sim::Task<Status> CreateSecondaryIndex(nvme::SecondaryIndexSpec spec);
  // Convenience: float32 key at byte `value_offset` of every value.
  sim::Task<Status> CreateSecondaryIndexF32(const std::string& name,
                                            std::uint32_t value_offset);

  // --- queries (keyspace must be COMPACTED) ---
  sim::Task<Result<std::string>> Get(const std::string& key);
  sim::Task<Future<Result<std::string>>> GetAsync(const std::string& key);
  sim::Task<Status> Scan(const std::string& lo, const std::string& hi,
                         std::uint32_t limit, Rows* out);
  // Secondary range with pre-encoded bounds.
  sim::Task<Status> QuerySecondaryRange(
      const std::string& index_name, const std::string& lo_encoded,
      const std::string& hi_encoded, std::uint32_t limit, Rows* out);
  sim::Task<Status> QuerySecondaryRangeF32(const std::string& index_name,
                                           float lo, float hi,
                                           std::uint32_t limit, Rows* out);

  // --- query pushdown (DESIGN.md §13) ---
  // Shared scan shape for Select/Aggregate. With `index_name` empty the
  // device runs a primary range scan over [lo, hi]; set it to drive the
  // scan through that secondary index instead (lo/hi are then
  // order-encoded secondary keys, e.g. nvme::EncodeSecondaryF32). `pred`
  // filters on raw value bytes beyond the scan bounds — build typed
  // predicates with nvme::PredicateF32 / PredicateBytes. `proj` trims
  // each select match to a byte range before it crosses PCIe (ignored —
  // rejected — by Aggregate). `limit` caps *matched* rows.
  struct SelectOptions {
    nvme::ValuePredicate pred;
    nvme::Projection proj;
    std::uint32_t limit = 0;
    std::string index_name;
  };
  // Device-filtered scan: only matching (possibly projected) records
  // cross the link.
  sim::Task<Status> Select(const std::string& lo, const std::string& hi,
                           const SelectOptions& opts, Rows* out);
  // Device-computed count/min/max/sum over an attribute of every match;
  // the completion carries four scalars regardless of row count. The
  // opts-free overloads scan unfiltered over the primary range — prefer
  // them over spelling `SelectOptions{}` at the call site.
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg, const SelectOptions& opts);
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg);

  // --- metadata ---
  struct Stat {
    std::uint64_t num_kvs = 0;
    std::string state;
    // The last compaction's or fold's outcome (Ok before the first): a
    // failed job rolls the keyspace back, so `state` alone hides it.
    Status compaction_status;
  };
  sim::Task<Result<Stat>> GetStat();

 private:
  friend class Client;
  KeyspaceHandle(Client* client, std::uint64_t id)
      : client_(client), id_(id) {}

  // A command addressed to this keyspace: the one builder every op,
  // sync or async, starts from.
  nvme::Command KsCommand(nvme::Opcode op) const;

  Client* client_ = nullptr;
  std::uint64_t id_ = 0;
};

class Client {
 public:
  Client(nvme::QueueSet* queues, sim::CpuPool* host_cpu,
         const hostenv::CostModel& host_costs, ClientConfig config = {});

  sim::Task<Result<KeyspaceHandle>> CreateKeyspace(const std::string& name);
  sim::Task<Result<KeyspaceHandle>> OpenKeyspace(const std::string& name);
  sim::Task<Status> DropKeyspace(const std::string& name);

  // --- in-band telemetry (DESIGN.md §14) ---
  // Pulls the device health page over the wire (kGetLogPage) and decodes
  // it: point-in-time gauges (zone pool, per-role zns.* usage, util.*
  // windowed utilization, delta-index sizes, inflight/compaction state).
  sim::Task<Result<nvme::HealthPage>> GetHealth();

  const ClientConfig& config() const { return config_; }
  nvme::QueueSet& queue() { return *queues_; }

  // The simulation-wide stats registry. The client records host-visible
  // round-trip latency histograms ("<prefix>cmd.<class>_ns") for the
  // put/get/range/secondary_range classes, and every command's latency
  // ledger (sim/ledger.h): "<prefix>cmd.<opcode>.<layer>_ns" per layer,
  // "<prefix>cmd.<opcode>.overlapped_ns", and the round trip under the
  // device's path tag, "<prefix>cmd.<opcode>.path.<path>_ns".
  sim::Stats& stats();

 private:
  friend class KeyspaceHandle;

  // The one submit path. Client-side cost (packing, doorbell), admission
  // window, then all commands ring one doorbell on one SQ (split into
  // window-sized chunks), so the per-command DMA-setup latency amortizes
  // across a batch. Returns once the commands are on the device's SQ;
  // their completions are reaped by the reactor.
  sim::Task<std::vector<std::shared_ptr<nvme::ReplyState>>> Submit(
      std::vector<nvme::Command> commands);
  // Submits a batch of one and types its future with `decode`.
  template <typename T>
  sim::Task<Future<T>> Launch(nvme::Command command,
                              T (*decode)(nvme::Completion));
  // A sync call: Launch, then await the future.
  template <typename T>
  sim::Task<T> Call(nvme::Command command, T (*decode)(nvme::Completion));

  // Reaps completions off cq_ring_: records round-trip latency, releases
  // the admission window, and resolves the future. Parked forever once
  // the simulation drains (reclaimed by ~Simulation).
  sim::Task<void> Reactor();
  void EnsureReactor();
  // The SQ this client submits on next (config.queue_id, or rotating).
  nvme::QueuePair* SubmitPair();
  // Stamps cmd_id/submit_tick and opens the causal flow for one command.
  void StampCommand(nvme::Command* command, Tick begin);

  // One opcode's series (see stats()), resolved on its first completion.
  struct CommandSeries {
    sim::Histogram* round_trip;  // null for unclassed opcodes
    std::array<sim::Histogram*, sim::kLayerCount> layers;
    sim::Histogram* overlapped;
    std::map<std::string, sim::Histogram*, std::less<>> paths;
  };
  CommandSeries MakeSeries(nvme::Opcode op);
  void RecordLedger(const nvme::ReplyState& state, Tick now);

  nvme::QueueSet* queues_;
  sim::CpuPool* host_cpu_;
  hostenv::CostModel costs_;
  ClientConfig config_;
  sim::Semaphore window_;
  // Serializes window-permit acquisition across concurrent batch
  // submitters (see Submit). A batch of one bypasses it.
  sim::Semaphore batch_gate_;
  nvme::CqRing cq_ring_;
  nvme::OpcodeTable<CommandSeries> series_;
  bool reactor_started_ = false;
  std::uint32_t rr_cursor_ = 0;
};

}  // namespace kvcsd::client
