#include "client/client.h"

#include <algorithm>

#include "common/coding.h"
#include "sim/simulation.h"

namespace kvcsd::client {

namespace {

// Completion decoders: one per future type, shared by each op's sync and
// async faces.
Status DecodeStatus(nvme::Completion completion) { return completion.status; }

Result<std::string> DecodeValue(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  return std::move(completion.value);
}

Result<Rows> DecodeRows(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  return std::move(completion.results);
}

Result<nvme::AggregateResult> DecodeAggregate(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  return completion.agg;
}

Result<nvme::HealthPage> DecodeHealth(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  nvme::HealthPage page;
  if (!nvme::DecodeHealthPage(completion.value, &page)) {
    return Status::Corruption("bad health log page");
  }
  return page;
}

Result<nvme::StatsPage> DecodeStats(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  nvme::StatsPage page;
  if (!nvme::DecodeStatsPage(completion.value, &page)) {
    return Status::Corruption("bad stats log page");
  }
  return page;
}

Result<std::uint64_t> DecodeKeyspaceId(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  return completion.keyspace_id;
}

Result<KeyspaceHandle::Stat> DecodeStat(nvme::Completion completion) {
  if (!completion.status.ok()) return completion.status;
  KeyspaceHandle::Stat stat;
  stat.num_kvs = completion.count;
  stat.state = std::move(completion.value);
  return stat;
}

// Row-returning sync calls append their rows to the caller's vector.
Status AppendRows(Result<Rows> rows, Rows* out) {
  if (!rows.ok()) return rows.status();
  for (auto& row : *rows) out->push_back(std::move(row));
  return Status::Ok();
}

nvme::Command NamedCommand(nvme::Opcode op, const std::string& name) {
  nvme::Command cmd;
  cmd.opcode = op;
  cmd.name = name;
  return cmd;
}

nvme::Command LogPageCommand(nvme::LogPageId page) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kGetLogPage;
  cmd.log_page = page;
  return cmd;
}

}  // namespace

Client::Client(nvme::QueueSet* queues, sim::CpuPool* host_cpu,
               const hostenv::CostModel& host_costs, ClientConfig config)
    : queues_(queues),
      host_cpu_(host_cpu),
      costs_(host_costs),
      config_(std::move(config)),
      window_(queues->sim(), std::max<std::uint32_t>(config_.max_inflight, 1)),
      batch_gate_(queues->sim(), 1),
      cq_ring_(queues->sim()) {}

sim::Stats& Client::stats() { return queues_->sim()->stats(); }

nvme::QueuePair* Client::SubmitPair() {
  const std::uint32_t n = queues_->num_queues();
  if (config_.queue_id != ClientConfig::kAnyQueue) {
    return queues_->pair(config_.queue_id % n);
  }
  const std::uint32_t q = rr_cursor_;
  rr_cursor_ = (rr_cursor_ + 1) % n;
  return queues_->pair(q);
}

void Client::StampCommand(nvme::Command* command, Tick begin) {
  sim::Simulation* sim = queues_->sim();
  // Stamp the causal id: everything this command touches — queue wait,
  // dispatch, execution, any compaction it spawns — traces back to it.
  command->cmd_id = sim->AllocateCmdId();
  command->submit_tick = begin;
  if (sim->tracer().enabled()) {
    sim->tracer().FlowBegin(sim->tracer().Track("client"), "cmd",
                            command->cmd_id, begin);
  }
}

sim::Task<void> Client::Reactor() {
  sim::Simulation* sim = queues_->sim();
  for (;;) {
    std::shared_ptr<nvme::ReplyState> state = co_await cq_ring_.Pop();
    const Tick now = sim->Now();
    // Host-visible round trip, including the client-side driver compute —
    // what an application would measure around a Put/Get call.
    if (const char* cls = nvme::OpcodeLatencyClass(state->opcode)) {
      sim->stats()
          .histogram(config_.stats_prefix + "cmd." + cls + "_ns")
          .Record(now - state->submit_begin);
    }
    if (sim->tracer().enabled() && state->cmd_id != 0) {
      // The client span: submit stamp -> reap.
      sim->tracer().CompleteSpan(
          sim->tracer().Track("client"), nvme::OpcodeName(state->opcode),
          state->submit_begin, now,
          {{"cmd_id", std::to_string(state->cmd_id)}});
    }
    window_.Release();
    state->done.Set();
  }
}

void Client::EnsureReactor() {
  if (reactor_started_) return;
  reactor_started_ = true;
  queues_->sim()->Spawn(Reactor());
}

sim::Task<std::vector<std::shared_ptr<nvme::ReplyState>>> Client::Submit(
    std::vector<nvme::Command> commands) {
  sim::Simulation* sim = queues_->sim();
  std::vector<std::shared_ptr<nvme::ReplyState>> states;
  states.reserve(commands.size());
  if (commands.empty()) co_return states;
  EnsureReactor();
  const std::uint32_t window_cap = std::max<std::uint32_t>(
      config_.max_inflight, 1);
  // Only one batch may hold partial window permits at a time. With
  // several batch submitters racing, interleaved acquisition could carve
  // the window up among callers that each park waiting for the rest —
  // nothing submitted, nothing completes, nothing released. The gate
  // holder's missing permits always come from commands that are already
  // in flight (if none were, the window would be whole and the
  // chunk-sized acquisition below could not block), so holding the gate
  // across the acquisition loop cannot stall. A batch of one needs a
  // single permit, which cannot carve anything up: it skips the gate.
  const bool gated = commands.size() > 1;
  std::size_t next = 0;
  while (next < commands.size()) {
    // Chunk to the admission window so the permit acquisition below can
    // never wait on completions of this very batch.
    const std::size_t chunk =
        std::min<std::size_t>(commands.size() - next, window_cap);
    if (gated) co_await batch_gate_.Acquire();
    const Tick begin = sim->Now();
    std::vector<nvme::Command> batch;
    batch.reserve(chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      StampCommand(&commands[next + i], begin);
      batch.push_back(std::move(commands[next + i]));
    }
    for (std::size_t i = 0; i < chunk; ++i) co_await window_.Acquire();
    // All permits held: the gate has done its job. Release before the
    // doorbell so concurrent batches pipeline on the submit path instead
    // of serializing behind each other's DMA setup.
    if (gated) batch_gate_.Release();
    // Userspace driver work on the host: packing + one doorbell ring for
    // the whole chunk. No kernel.
    co_await host_cpu_->Compute(costs_.syscall_overhead);
    std::vector<std::shared_ptr<nvme::ReplyState>> submitted =
        co_await SubmitPair()->Submit(std::move(batch), &cq_ring_);
    for (auto& state : submitted) states.push_back(std::move(state));
    next += chunk;
  }
  co_return states;
}

template <typename T>
sim::Task<Future<T>> Client::Launch(nvme::Command command,
                                    T (*decode)(nvme::Completion)) {
  std::vector<nvme::Command> batch;
  batch.push_back(std::move(command));
  std::vector<std::shared_ptr<nvme::ReplyState>> states =
      co_await Submit(std::move(batch));
  co_return Future<T>(std::move(states.front()), decode);
}

template <typename T>
sim::Task<T> Client::Call(nvme::Command command,
                          T (*decode)(nvme::Completion)) {
  Future<T> future = co_await Launch(std::move(command), decode);
  co_return co_await future.Await();
}

sim::Task<Result<KeyspaceHandle>> Client::CreateKeyspace(
    const std::string& name) {
  nvme::Command cmd = NamedCommand(nvme::Opcode::kKeyspaceCreate, name);
  Result<std::uint64_t> id = co_await Call(std::move(cmd), DecodeKeyspaceId);
  if (!id.ok()) co_return id.status();
  co_return KeyspaceHandle(this, *id);
}

sim::Task<Result<KeyspaceHandle>> Client::OpenKeyspace(
    const std::string& name) {
  nvme::Command cmd = NamedCommand(nvme::Opcode::kKeyspaceOpen, name);
  Result<std::uint64_t> id = co_await Call(std::move(cmd), DecodeKeyspaceId);
  if (!id.ok()) co_return id.status();
  co_return KeyspaceHandle(this, *id);
}

sim::Task<Status> Client::DropKeyspace(const std::string& name) {
  nvme::Command cmd = NamedCommand(nvme::Opcode::kKeyspaceDrop, name);
  co_return co_await Call(std::move(cmd), DecodeStatus);
}

sim::Task<Result<nvme::HealthPage>> Client::GetHealth() {
  co_return co_await (co_await GetHealthAsync()).Await();
}

sim::Task<Result<nvme::StatsPage>> Client::GetStats() {
  co_return co_await (co_await GetStatsAsync()).Await();
}

sim::Task<Future<Result<nvme::HealthPage>>> Client::GetHealthAsync() {
  nvme::Command cmd = LogPageCommand(nvme::LogPageId::kHealth);
  return Launch(std::move(cmd), DecodeHealth);
}

sim::Task<Future<Result<nvme::StatsPage>>> Client::GetStatsAsync() {
  nvme::Command cmd = LogPageCommand(nvme::LogPageId::kStats);
  return Launch(std::move(cmd), DecodeStats);
}

// ---------------------------------------------------------------------------
// KeyspaceHandle
// ---------------------------------------------------------------------------

nvme::Command KeyspaceHandle::KsCommand(nvme::Opcode op) const {
  nvme::Command cmd;
  cmd.opcode = op;
  cmd.keyspace_id = id_;
  return cmd;
}

sim::Task<Status> KeyspaceHandle::Put(const std::string& key,
                                      const std::string& value) {
  co_return co_await (co_await PutAsync(key, value)).Await();
}

sim::Task<Future<Status>> KeyspaceHandle::PutAsync(const std::string& key,
                                                   const std::string& value) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kKvStore);
  cmd.key = key;
  cmd.value = value;
  return client_->Launch(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::Delete(const std::string& key) {
  co_return co_await (co_await DeleteAsync(key)).Await();
}

sim::Task<Future<Status>> KeyspaceHandle::DeleteAsync(const std::string& key) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kKvDelete);
  cmd.key = key;
  return client_->Launch(std::move(cmd), DecodeStatus);
}

sim::Task<std::vector<Future<Status>>> KeyspaceHandle::PutBatchAsync(
    std::vector<std::pair<std::string, std::string>> pairs) {
  std::vector<nvme::Command> commands;
  commands.reserve(pairs.size());
  for (auto& [key, value] : pairs) {
    nvme::Command cmd = KsCommand(nvme::Opcode::kKvStore);
    cmd.key = std::move(key);
    cmd.value = std::move(value);
    commands.push_back(std::move(cmd));
  }
  std::vector<std::shared_ptr<nvme::ReplyState>> states =
      co_await client_->Submit(std::move(commands));
  std::vector<Future<Status>> futures;
  futures.reserve(states.size());
  for (auto& state : states) {
    futures.push_back(Future<Status>(std::move(state), DecodeStatus));
  }
  co_return futures;
}

sim::Task<Result<std::string>> KeyspaceHandle::Get(const std::string& key) {
  co_return co_await (co_await GetAsync(key)).Await();
}

sim::Task<Future<Result<std::string>>> KeyspaceHandle::GetAsync(
    const std::string& key) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kKvRetrieve);
  cmd.key = key;
  return client_->Launch(std::move(cmd), DecodeValue);
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Add(const std::string& key,
                                                  const std::string& value) {
  // Frame format consumed by Device::DoBulkPut: length-prefixed key then
  // length-prefixed value, repeated.
  PutLengthPrefixedSlice(&frame_, Slice(key));
  PutLengthPrefixedSlice(&frame_, Slice(value));
  if (frame_.size() >= client_->config().bulk_frame_bytes) {
    co_return co_await Flush();
  }
  co_return Status::Ok();
}

sim::Task<void> KeyspaceHandle::BulkWriter::ReapOldest() {
  Future<Status> oldest = std::move(window_.front());
  window_.pop_front();
  Status status = co_await oldest.Await();
  if (first_error_.ok() && !status.ok()) first_error_ = status;
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Flush() {
  if (frame_.empty()) co_return first_error_;
  // Client-side packing cost for the whole frame.
  co_await client_->host_cpu_->ComputeBytes(
      frame_.size(), client_->costs_.memcpy_bytes_per_sec);
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kBulkStore;
  cmd.keyspace_id = keyspace_id_;
  cmd.value = std::move(frame_);
  frame_.clear();
  ++frames_sent_;
  const std::uint32_t depth =
      std::max<std::uint32_t>(client_->config().bulk_inflight_frames, 1);
  if (depth <= 1) {
    co_return co_await client_->Call(std::move(cmd), DecodeStatus);
  }
  // Pipelined: keep up to `depth` frames on the wire; ship this frame as
  // soon as a window slot frees. Errors from earlier frames surface here
  // (and definitively at Drain()).
  while (window_.size() >= depth) co_await ReapOldest();
  window_.push_back(co_await client_->Launch(std::move(cmd), DecodeStatus));
  co_return first_error_;
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Drain() {
  Status flush_status = co_await Flush();
  while (!window_.empty()) co_await ReapOldest();
  if (!flush_status.ok()) co_return flush_status;
  co_return std::exchange(first_error_, Status::Ok());
}

sim::Task<Status> KeyspaceHandle::Sync() {
  nvme::Command cmd = KsCommand(nvme::Opcode::kSync);
  co_return co_await client_->Call(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::SyncWithRetry(std::uint32_t attempts) {
  sim::Simulation* sim = client_->queues_->sim();
  const ClientConfig& config = client_->config();
  Status last = Status::Ok();
  const std::uint32_t bounded = std::max<std::uint32_t>(attempts, 1);
  for (std::uint32_t i = 0; i < bounded; ++i) {
    if (i > 0) {
      // Exponential backoff before each retry: base << (attempt-1),
      // capped. Hammering immediate retries would re-flush into the same
      // transient fault window.
      const std::uint32_t shift = std::min<std::uint32_t>(i - 1, 20);
      const Tick backoff = std::min<Tick>(
          config.retry_backoff_base << shift, config.retry_backoff_cap);
      client_->stats().counter(config.stats_prefix + "sync.retries")
          .Increment();
      co_await sim->Delay(backoff);
    }
    last = co_await Sync();
    if (last.ok() || !last.IsRetryable()) co_return last;
  }
  co_return last;
}

sim::Task<Status> KeyspaceHandle::CompactWithIndexes(
    std::vector<nvme::SecondaryIndexSpec> specs) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kCompactWithIndexes);
  cmd.sidx_list = std::move(specs);
  co_return co_await client_->Call(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::Compact() {
  nvme::Command cmd = KsCommand(nvme::Opcode::kCompact);
  co_return co_await client_->Call(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::WaitCompaction() {
  nvme::Command cmd = KsCommand(nvme::Opcode::kCompactWait);
  co_return co_await client_->Call(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::CreateSecondaryIndex(
    nvme::SecondaryIndexSpec spec) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kSecondaryBuild);
  cmd.sidx = std::move(spec);
  co_return co_await client_->Call(std::move(cmd), DecodeStatus);
}

sim::Task<Status> KeyspaceHandle::CreateSecondaryIndexF32(
    const std::string& name, std::uint32_t value_offset) {
  nvme::SecondaryIndexSpec spec;
  spec.name = name;
  spec.value_offset = value_offset;
  spec.value_length = 4;
  spec.type = nvme::SecondaryKeyType::kF32;
  co_return co_await CreateSecondaryIndex(std::move(spec));
}

sim::Task<Status> KeyspaceHandle::Scan(const std::string& lo,
                                       const std::string& hi,
                                       std::uint32_t limit, Rows* out) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kQueryPrimaryRange);
  cmd.key = lo;
  cmd.key_end = hi;
  cmd.limit = limit;
  co_return AppendRows(co_await client_->Call(std::move(cmd), DecodeRows),
                       out);
}

sim::Task<Status> KeyspaceHandle::QuerySecondaryRange(
    const std::string& index_name, const std::string& lo_encoded,
    const std::string& hi_encoded, std::uint32_t limit, Rows* out) {
  nvme::Command cmd = KsCommand(nvme::Opcode::kQuerySecondaryRange);
  cmd.sidx.name = index_name;
  cmd.key = lo_encoded;
  cmd.key_end = hi_encoded;
  cmd.limit = limit;
  co_return AppendRows(co_await client_->Call(std::move(cmd), DecodeRows),
                       out);
}

sim::Task<Status> KeyspaceHandle::QuerySecondaryRangeF32(
    const std::string& index_name, float lo, float hi, std::uint32_t limit,
    Rows* out) {
  co_return co_await QuerySecondaryRange(
      index_name, nvme::EncodeSecondaryF32(lo), nvme::EncodeSecondaryF32(hi),
      limit, out);
}

namespace {

nvme::Command MakePushdownCommand(nvme::Command cmd, const std::string& lo,
                                  const std::string& hi,
                                  const KeyspaceHandle::SelectOptions& opts) {
  cmd.key = lo;
  cmd.key_end = hi;
  cmd.limit = opts.limit;
  cmd.pred = opts.pred;
  cmd.proj = opts.proj;
  cmd.sidx.name = opts.index_name;
  return cmd;
}

}  // namespace

sim::Task<Status> KeyspaceHandle::Select(const std::string& lo,
                                         const std::string& hi,
                                         const SelectOptions& opts,
                                         Rows* out) {
  co_return AppendRows(co_await (co_await SelectAsync(lo, hi, opts)).Await(),
                       out);
}

sim::Task<Future<Result<Rows>>> KeyspaceHandle::SelectAsync(
    const std::string& lo, const std::string& hi, const SelectOptions& opts) {
  nvme::Command cmd =
      MakePushdownCommand(KsCommand(nvme::Opcode::kKvSelect), lo, hi, opts);
  return client_->Launch(std::move(cmd), DecodeRows);
}

sim::Task<Result<nvme::AggregateResult>> KeyspaceHandle::Aggregate(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg, const SelectOptions& opts) {
  co_return co_await (co_await AggregateAsync(lo, hi, agg, opts)).Await();
}

sim::Task<Result<nvme::AggregateResult>> KeyspaceHandle::Aggregate(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg) {
  co_return co_await (co_await AggregateAsync(lo, hi, agg)).Await();
}

sim::Task<Future<Result<nvme::AggregateResult>>>
KeyspaceHandle::AggregateAsync(const std::string& lo, const std::string& hi,
                               const nvme::AggregateSpec& agg,
                               const SelectOptions& opts) {
  nvme::Command cmd = MakePushdownCommand(
      KsCommand(nvme::Opcode::kKvAggregate), lo, hi, opts);
  cmd.agg = agg;
  return client_->Launch(std::move(cmd), DecodeAggregate);
}

sim::Task<Future<Result<nvme::AggregateResult>>>
KeyspaceHandle::AggregateAsync(const std::string& lo, const std::string& hi,
                               const nvme::AggregateSpec& agg) {
  return AggregateAsync(lo, hi, agg, SelectOptions{});
}

sim::Task<Result<KeyspaceHandle::Stat>> KeyspaceHandle::GetStat() {
  nvme::Command cmd = KsCommand(nvme::Opcode::kKeyspaceStat);
  co_return co_await client_->Call(std::move(cmd), DecodeStat);
}

}  // namespace kvcsd::client
