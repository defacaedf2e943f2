// Host-side shard router: one logical keyspace over N independent KV-CSDs.
//
// A single simulated device serializes keyspace mutations behind one
// dispatch loop, so aggregate throughput flattens once the host can
// submit faster than the SoC dispatches. The router scales out instead
// of up (DESIGN.md §15): it hash- or range-partitions the primary key
// space over N devices — each with its own ZNS SSD, SoC, PCIe link and
// async multi-queue client — and makes the fleet look like one keyspace:
//
//   PUT/GET/DELETE  route to the owning shard (Partitioner) and retry
//                   kBusy with exponential backoff while a shard
//                   compacts. GetAsync and PutBatchAsync return the shard
//                   clients' futures and ride their admission windows.
//   Scan/secondary  scatter to every shard, then k-way merge the
//                   per-shard sorted streams host-side (loser tree),
//                   producing the exact single-device result order.
//   Select/Aggregate scatter the pushdown descriptor; selects merge like
//                   scans, aggregate scalars fold in shard order 0..N-1.
//   Compact/index   staggered by a CompactionGovernor so at most K
//                   shards burn their SoC on compaction at once.
//
// Every routed op stays on the shard clients' futures API, so per-shard
// inflight windows (ClientConfig::max_inflight) provide admission
// control without any router-side queueing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/status.h"
#include "nvme/command.h"
#include "router/partitioner.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::router {

// Bounds how many shards may run a device-side compaction or secondary
// index build simultaneously. Compaction monopolizes a shard's SoC
// cores; letting all N shards compact together would stall foreground
// traffic fleet-wide, while staggering keeps N-K shards serving. Thin
// counting-semaphore wrapper so tests can drive it directly.
class CompactionGovernor {
 public:
  CompactionGovernor(sim::Simulation* sim, std::uint32_t max_concurrent)
      : sem_(sim, max_concurrent) {}
  auto Acquire() { return sem_.Acquire(); }
  void Release() { sem_.Release(); }

 private:
  sim::Semaphore sem_;
};

// Governor width: max shards compacting/index-building concurrently.
inline constexpr std::uint32_t kMaxCompactingShards = 2;
// Routed sync writes retry kBusy (shard mid-compaction) this many times,
// waiting client::RetryBackoff() before each, then surface the error.
inline constexpr std::uint32_t kBusyRetryAttempts = 8;

class ShardedClient;

// A handle to one logical (sharded) keyspace. Cheap to copy: wraps
// shared state holding the per-shard KeyspaceHandles plus the secondary
// index specs the router needs to re-derive merge keys host-side.
class ShardedKeyspaceHandle {
 public:
  using Rows = client::Rows;

  ShardedKeyspaceHandle() = default;
  bool valid() const { return router_ != nullptr; }
  const std::string& name() const;
  std::uint32_t num_shards() const;
  // The shard that owns `key` under the router's partitioner.
  std::uint32_t ShardOf(std::string_view key) const;
  // Direct access to one shard's handle (tests, diagnostics).
  client::KeyspaceHandle& shard_handle(std::uint32_t shard);

  // --- routed writes ---
  // Put and Delete retry kBusy with backoff (kBusyRetryAttempts).
  sim::Task<Status> Put(const std::string& key, const std::string& value);
  // Batched async puts: pairs are grouped by owning shard and each
  // group ships as one doorbell ring on that shard's client, so the
  // per-command submission cost amortizes across the batch AND across
  // shards. Futures come back in input order; each surfaces its shard's
  // status and leaves retry policy to the caller.
  sim::Task<std::vector<client::Future<Status>>> PutBatchAsync(
      std::vector<std::pair<std::string, std::string>> pairs);
  sim::Task<Status> Delete(const std::string& key);

  // Fan-out fsync: every shard's buffered PUTs are durable on return.
  sim::Task<Status> Sync();

  // --- lifecycle ---
  // Compacts every shard, staggered by the router's CompactionGovernor
  // (at most K shards compacting at once; kBusy triggers deferred
  // retry). Unlike the single-device Compact() this BLOCKS until every
  // shard reports COMPACTED — "compact the logical keyspace" is only
  // meaningful as a barrier across the fleet.
  sim::Task<Status> Compact();
  sim::Task<Status> CompactWithIndexes(
      std::vector<nvme::SecondaryIndexSpec> specs);
  // Barrier: blocks until every shard reports COMPACTED.
  sim::Task<Status> WaitCompaction();

  // Builds the index on every shard (governor-staggered) and records the
  // spec for host-side merge key derivation.
  sim::Task<Status> CreateSecondaryIndex(nvme::SecondaryIndexSpec spec);
  sim::Task<Status> CreateSecondaryIndexF32(const std::string& name,
                                            std::uint32_t value_offset);
  // Declares an index that already exists device-side (e.g. after
  // OpenKeyspace on a previously built fleet) so secondary scatter
  // queries can merge. No device command is issued.
  void RegisterSecondaryIndex(nvme::SecondaryIndexSpec spec);

  // --- routed point reads ---
  sim::Task<Result<std::string>> Get(const std::string& key);
  sim::Task<client::Future<Result<std::string>>> GetAsync(
      const std::string& key);

  // --- scatter-gather queries ---
  // Scatters to every shard with the same [lo, hi] and per-shard limit,
  // k-way merges the sorted streams by primary key and truncates to
  // `limit`. Because the partition is disjoint, the merged stream is
  // byte-identical to a single device holding the whole dataset.
  sim::Task<Status> Scan(const std::string& lo, const std::string& hi,
                         std::uint32_t limit, Rows* out);
  // Secondary scatter: merges by (encoded secondary key, primary key),
  // re-deriving each row's secondary key from the registered index spec.
  sim::Task<Status> QuerySecondaryRange(const std::string& index_name,
                                        const std::string& lo_encoded,
                                        const std::string& hi_encoded,
                                        std::uint32_t limit, Rows* out);
  sim::Task<Status> QuerySecondaryRangeF32(const std::string& index_name,
                                           float lo, float hi,
                                           std::uint32_t limit, Rows* out);

  // Pushdown select: the predicate/projection descriptor ships to every
  // shard; matches merge by primary key (or by secondary key when
  // opts.index_name is set). Projections that drop the indexed attribute
  // from the value cannot be merge-ordered — keep it in the range.
  // Like the single-device API these are NOT coroutines: arguments are
  // copied into the scatter coroutine up front, so caller temporaries
  // (a literal `{}` for opts) never dangle.
  sim::Task<Status> Select(const std::string& lo, const std::string& hi,
                           const client::KeyspaceHandle::SelectOptions& opts,
                           Rows* out) {
    return SelectScatter(lo, hi, opts, out);
  }
  // Pushdown aggregate: per-shard scalars fold host-side in shard order
  // 0..N-1 (deterministic). opts.limit must be 0: a matched-row cap is
  // not decomposable across shards. The opts-free overload scans
  // unfiltered over the primary range.
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg,
      const client::KeyspaceHandle::SelectOptions& opts) {
    return AggregateScatter(lo, hi, agg, opts);
  }
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg) {
    return AggregateScatter(lo, hi, agg, {});
  }

  // --- metadata ---
  // num_kvs sums over shards; state is the common per-shard state, or
  // "MIXED" when shards disagree (e.g. mid-compaction).
  sim::Task<Result<client::KeyspaceHandle::Stat>> GetStat();

 private:
  friend class ShardedClient;

  struct State {
    std::string name;
    std::vector<client::KeyspaceHandle> shards;
    // Index specs keyed by name, recorded at creation/registration so
    // scatter-gather merges can re-derive each row's secondary key.
    std::map<std::string, nvme::SecondaryIndexSpec> indexes;
  };

  ShardedKeyspaceHandle(ShardedClient* router, std::shared_ptr<State> state)
      : router_(router), state_(std::move(state)) {}

  // Governor-staggered per-shard compaction driver (spawned per shard).
  sim::Task<Status> CompactShard(std::uint32_t shard,
                                 std::vector<nvme::SecondaryIndexSpec> specs);
  sim::Task<Status> BuildIndexShard(std::uint32_t shard,
                                    nvme::SecondaryIndexSpec spec);
  // Coroutine bodies behind Select/Aggregate; own every argument by
  // value so no caller lifetime leaks into the scatter frame.
  sim::Task<Status> SelectScatter(std::string lo, std::string hi,
                                  client::KeyspaceHandle::SelectOptions opts,
                                  Rows* out);
  sim::Task<Result<nvme::AggregateResult>> AggregateScatter(
      std::string lo, std::string hi, nvme::AggregateSpec agg,
      client::KeyspaceHandle::SelectOptions opts);
  // The one scatter behind every multi-shard query: `query(i)` makes
  // shard i's sub-query (a Task<Status>); they start in shard order, each
  // is timed, and once all have joined `gather()` merges them and returns
  // the row count FinishScatter records under a `op` trace span and the
  // "scatter.<kind>" counter. Returns the first failure.
  template <typename Query, typename Gather>
  sim::Task<Status> Scatter(const char* op, const char* kind,
                            const Query& query, const Gather& gather);
  // Looks up a registered index spec; kInvalidArgument when unknown.
  Result<nvme::SecondaryIndexSpec> IndexSpec(const std::string& name) const;
  // Awaits `attempt()` again, with exponential backoff, while it answers
  // kBusy (a shard mid-compaction), at most kBusyRetryAttempts
  // times. `attempt` returns a fresh Task<Status> or Task<Result<T>>.
  template <typename Attempt>
  auto RetryBusy(Attempt attempt) -> decltype(attempt());

  ShardedClient* router_ = nullptr;
  std::shared_ptr<State> state_;
};

class ShardedClient {
 public:
  // `shards` are non-owned, must outlive the router, and must all live
  // on `sim`. The partitioner is shared: a fleet rebuilt after a power
  // cycle routes through the same one. At least one shard is required.
  ShardedClient(sim::Simulation* sim, std::vector<client::Client*> shards,
                std::shared_ptr<const Partitioner> partitioner);

  // Creates/opens/drops the keyspace under the same name on EVERY shard.
  sim::Task<Result<ShardedKeyspaceHandle>> CreateKeyspace(
      const std::string& name);
  sim::Task<Result<ShardedKeyspaceHandle>> OpenKeyspace(
      const std::string& name);
  sim::Task<Status> DropKeyspace(const std::string& name);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t ShardOf(std::string_view key) const {
    return partitioner_->ShardOf(key, num_shards());
  }
  client::Client& shard(std::uint32_t i) { return *shards_[i]; }
  sim::Simulation* sim() { return sim_; }

 private:
  friend class ShardedKeyspaceHandle;

  // Per-shard routed-op counters, cached off the stats registry so the
  // hot path is pointer bumps ("router.shard0.puts", ...).
  struct ShardCounters {
    sim::Counter* puts;
    sim::Counter* gets;
    sim::Counter* deletes;
  };

  sim::Simulation* sim_;
  std::vector<client::Client*> shards_;
  std::shared_ptr<const Partitioner> partitioner_;
  CompactionGovernor governor_;
  std::vector<ShardCounters> shard_counters_;
  sim::Counter* busy_retries_;
};

}  // namespace kvcsd::router
