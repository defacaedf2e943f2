#include "router/sharded_client.h"

#include <algorithm>
#include <tuple>

#include "common/slice.h"
#include "kvcsd/merge.h"
#include "nvme/skey.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::router {
namespace {

using Rows = ShardedKeyspaceHandle::Rows;

bool IsBusy(const Status& status) { return status.IsBusy(); }
template <typename T>
bool IsBusy(const Result<T>& result) {
  return !result.ok() && result.status().IsBusy();
}

// K-way merge of per-shard sorted streams via the device's loser tree.
// `less(sa, ia, sb, ib)` orders row ia of stream sa against row ib of
// stream sb; exhausted streams sort after live ones and ties break by
// stream index, so the merge is total and deterministic. Stops after
// `limit` rows (0 = unlimited). Rows are moved out of the streams.
template <typename RowLess>
void MergeStreams(std::vector<Rows>* streams, std::uint32_t limit,
                  RowLess&& less, Rows* out) {
  const std::size_t k = streams->size();
  std::vector<std::size_t> pos(k, 0);
  auto leaf_less = [&](std::size_t a, std::size_t b) {
    const bool va = pos[a] < (*streams)[a].size();
    const bool vb = pos[b] < (*streams)[b].size();
    if (!va || !vb) return va;
    if (less(a, pos[a], b, pos[b])) return true;
    if (less(b, pos[b], a, pos[a])) return false;
    return a < b;
  };
  device::LoserTree tree;
  tree.Build(k, leaf_less);
  while (true) {
    const std::size_t w = tree.winner();
    if (w == device::LoserTree::kNone || pos[w] >= (*streams)[w].size()) {
      break;
    }
    out->push_back(std::move((*streams)[w][pos[w]]));
    ++pos[w];
    if (limit != 0 && out->size() >= limit) break;
    tree.Replay(w, leaf_less);
  }
}

// Merges per-shard streams sorted by primary key.
void MergeByPrimary(std::vector<Rows>* per, std::uint32_t limit, Rows* out) {
  MergeStreams(per, limit,
               [per](std::size_t sa, std::size_t ia, std::size_t sb,
                     std::size_t ib) {
                 return (*per)[sa][ia].first < (*per)[sb][ib].first;
               },
               out);
}

// Re-derives the order-encoded secondary key for every row so the merge
// can reproduce the device's (skey, pkey) iteration order host-side.
Status DeriveMergeKeys(const Rows& rows, const nvme::SecondaryIndexSpec& spec,
                       std::vector<std::string>* skeys) {
  skeys->reserve(rows.size());
  for (const auto& kv : rows) {
    Result<std::string> skey =
        nvme::ExtractSecondaryKey(Slice(kv.second), spec);
    if (!skey.ok()) {
      return Status::InvalidArgument(
          "cannot derive merge key for index '" + spec.name +
          "' (projection must keep the indexed attribute): " +
          skey.status().message());
    }
    skeys->push_back(std::move(skey).value());
  }
  return Status::Ok();
}

// Merges per-shard streams sorted by (secondary key, primary key).
Status MergeBySecondary(std::vector<Rows>* per,
                        const nvme::SecondaryIndexSpec& spec,
                        std::uint32_t limit, Rows* out) {
  std::vector<std::vector<std::string>> skeys(per->size());
  for (std::size_t i = 0; i < per->size(); ++i) {
    KVCSD_RETURN_IF_ERROR(DeriveMergeKeys((*per)[i], spec, &skeys[i]));
  }
  MergeStreams(per, limit,
               [per, &skeys](std::size_t sa, std::size_t ia, std::size_t sb,
                             std::size_t ib) {
                 return std::tie(skeys[sa][ia], (*per)[sa][ia].first) <
                        std::tie(skeys[sb][ib], (*per)[sb][ib].first);
               },
               out);
  return Status::Ok();
}

// Attributes the scatter to its slowest shard: counters + histogram
// under router.scatter.*, plus span args the trace analyzer renders
// into the per-query fan-out table.
void FinishScatter(sim::Simulation* sim, const char* kind, sim::TraceSpan* span,
                   const std::vector<Tick>& elapsed, std::uint64_t rows) {
  std::uint32_t slowest = 0;
  for (std::uint32_t i = 1; i < elapsed.size(); ++i) {
    if (elapsed[i] > elapsed[slowest]) slowest = i;
  }
  const Tick slowest_ns = elapsed.empty() ? 0 : elapsed[slowest];
  sim->stats().counter(std::string("router.scatter.") + kind).Increment();
  sim->stats().histogram("router.scatter.slowest_ns").Record(slowest_ns);
  span->Arg("fanout", static_cast<std::uint64_t>(elapsed.size()));
  span->Arg("rows", rows);
  span->Arg("slowest_shard", static_cast<std::uint64_t>(slowest));
  span->Arg("slowest_ns", slowest_ns);
}

// One shard's sub-query of a scatter, timed so the gather can attribute
// the merge wait to the slowest shard.
sim::Task<Status> TimeShard(sim::Simulation* sim, sim::Task<Status> query,
                            Tick* elapsed) {
  const Tick begin = sim->Now();
  Status s = co_await std::move(query);
  *elapsed = sim->Now() - begin;
  co_return s;
}

// One shard's slice of a routed batch PUT: ships the sub-batch as a
// single doorbell on the owning shard's client, then scatters the
// returned futures back to their input-order slots. idx/futures point
// into the scattering coroutine's frame (alive until the group joins).
sim::Task<Status> PutShardBatch(
    client::KeyspaceHandle* ks,
    std::vector<std::pair<std::string, std::string>> sub,
    const std::vector<std::size_t>* idx,
    std::vector<client::Future<Status>>* futures) {
  std::vector<client::Future<Status>> shard_futures =
      co_await ks->PutBatchAsync(std::move(sub));
  for (std::size_t j = 0; j < idx->size(); ++j) {
    (*futures)[(*idx)[j]] = std::move(shard_futures[j]);
  }
  co_return Status::Ok();
}

}  // namespace

// --- ShardedClient ---

ShardedClient::ShardedClient(sim::Simulation* sim,
                             std::vector<client::Client*> shards,
                             std::shared_ptr<const Partitioner> partitioner)
    : sim_(sim),
      shards_(std::move(shards)),
      partitioner_(std::move(partitioner)),
      governor_(sim, kMaxCompactingShards) {
  shard_counters_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string p = "router.shard" + std::to_string(i) + ".";
    shard_counters_.push_back({&sim_->stats().counter(p + "puts"),
                               &sim_->stats().counter(p + "gets"),
                               &sim_->stats().counter(p + "deletes")});
  }
  busy_retries_ = &sim_->stats().counter("router.busy.retries");
}

sim::Task<Result<ShardedKeyspaceHandle>> ShardedClient::CreateKeyspace(
    const std::string& name) {
  auto state = std::make_shared<ShardedKeyspaceHandle::State>();
  state->name = name;
  state->shards.reserve(shards_.size());
  for (client::Client* c : shards_) {
    Result<client::KeyspaceHandle> r = co_await c->CreateKeyspace(name);
    if (!r.ok()) co_return r.status();
    state->shards.push_back(std::move(r).value());
  }
  co_return ShardedKeyspaceHandle(this, std::move(state));
}

sim::Task<Result<ShardedKeyspaceHandle>> ShardedClient::OpenKeyspace(
    const std::string& name) {
  auto state = std::make_shared<ShardedKeyspaceHandle::State>();
  state->name = name;
  state->shards.reserve(shards_.size());
  for (client::Client* c : shards_) {
    Result<client::KeyspaceHandle> r = co_await c->OpenKeyspace(name);
    if (!r.ok()) co_return r.status();
    state->shards.push_back(std::move(r).value());
  }
  co_return ShardedKeyspaceHandle(this, std::move(state));
}

sim::Task<Status> ShardedClient::DropKeyspace(const std::string& name) {
  Status first = Status::Ok();
  for (client::Client* c : shards_) {
    Status s = co_await c->DropKeyspace(name);
    if (!s.ok() && first.ok()) first = s;
  }
  co_return first;
}

// --- ShardedKeyspaceHandle: accessors ---

const std::string& ShardedKeyspaceHandle::name() const {
  return state_->name;
}

std::uint32_t ShardedKeyspaceHandle::num_shards() const {
  return static_cast<std::uint32_t>(state_->shards.size());
}

std::uint32_t ShardedKeyspaceHandle::ShardOf(std::string_view key) const {
  return router_->ShardOf(key);
}

client::KeyspaceHandle& ShardedKeyspaceHandle::shard_handle(
    std::uint32_t shard) {
  return state_->shards[shard];
}

void ShardedKeyspaceHandle::RegisterSecondaryIndex(
    nvme::SecondaryIndexSpec spec) {
  std::string key = spec.name;
  state_->indexes[std::move(key)] = std::move(spec);
}

Result<nvme::SecondaryIndexSpec> ShardedKeyspaceHandle::IndexSpec(
    const std::string& index_name) const {
  const auto it = state_->indexes.find(index_name);
  if (it == state_->indexes.end()) {
    return Status::InvalidArgument(
        "index '" + index_name +
        "' not registered with the router (create it through the sharded "
        "handle or RegisterSecondaryIndex after OpenKeyspace)");
  }
  return it->second;
}

template <typename Attempt>
auto ShardedKeyspaceHandle::RetryBusy(Attempt attempt) -> decltype(attempt()) {
  ShardedClient* r = router_;
  for (std::uint32_t retries = 0;; ++retries) {
    auto outcome = co_await attempt();
    if (!IsBusy(outcome) || retries >= kBusyRetryAttempts) {
      co_return outcome;
    }
    r->busy_retries_->Increment();
    co_await r->sim_->Delay(client::RetryBackoff(retries));
  }
}

// --- routed writes ---

sim::Task<Status> ShardedKeyspaceHandle::Put(const std::string& key,
                                             const std::string& value) {
  const std::uint32_t shard = ShardOf(key);
  router_->shard_counters_[shard].puts->Increment();
  co_return co_await RetryBusy(
      [&] { return state_->shards[shard].Put(key, value); });
}

sim::Task<std::vector<client::Future<Status>>>
ShardedKeyspaceHandle::PutBatchAsync(
    std::vector<std::pair<std::string, std::string>> pairs) {
  ShardedClient* r = router_;
  const std::uint32_t n = num_shards();
  std::vector<client::Future<Status>> futures(pairs.size());
  std::vector<std::vector<std::size_t>> members(n);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    members[ShardOf(pairs[i].first)].push_back(i);
  }
  // Scatter the sub-batches concurrently: submitting shard-by-shard
  // would serialize N doorbell costs into every batch call, turning
  // scale-out into a per-batch latency tax that grows with the fleet.
  sim::TaskGroup group(r->sim_);
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    const std::vector<std::size_t>& idx = members[shard];
    if (idx.empty()) continue;
    r->shard_counters_[shard].puts->Add(idx.size());
    std::vector<std::pair<std::string, std::string>> sub;
    sub.reserve(idx.size());
    for (std::size_t i : idx) sub.push_back(std::move(pairs[i]));
    group.Spawn(PutShardBatch(&state_->shards[shard], std::move(sub),
                              &members[shard], &futures));
  }
  // PutShardBatch always returns OK: each pair's error surfaces through
  // its future (RouterTest.PutBatchAsyncReportsEachPairThroughItsFuture),
  // so the join is only a frame-lifetime barrier.
  (void)co_await group.Wait();
  co_return futures;
}

sim::Task<Status> ShardedKeyspaceHandle::Delete(const std::string& key) {
  const std::uint32_t shard = ShardOf(key);
  router_->shard_counters_[shard].deletes->Increment();
  co_return co_await RetryBusy(
      [&] { return state_->shards[shard].Delete(key); });
}

sim::Task<Status> ShardedKeyspaceHandle::Sync() {
  sim::TaskGroup group(router_->sim_);
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    group.Spawn(state_->shards[i].Sync());
  }
  co_return co_await group.Wait();
}

// --- lifecycle ---

sim::Task<Status> ShardedKeyspaceHandle::CompactShard(
    std::uint32_t shard, std::vector<nvme::SecondaryIndexSpec> specs) {
  ShardedClient* r = router_;
  co_await r->governor_.Acquire();
  client::KeyspaceHandle& ks = state_->shards[shard];
  Status s = co_await RetryBusy([&] {
    return specs.empty() ? ks.Compact() : ks.CompactWithIndexes(specs);
  });
  // Hold the governor slot through the barrier: the slot models "this
  // shard's SoC is busy compacting", which is true until COMPACTED.
  if (s.ok()) s = co_await ks.WaitCompaction();
  r->governor_.Release();
  co_return s;
}

sim::Task<Status> ShardedKeyspaceHandle::Compact() {
  sim::TaskGroup group(router_->sim_);
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    group.Spawn(CompactShard(i, {}));
  }
  co_return co_await group.Wait();
}

sim::Task<Status> ShardedKeyspaceHandle::CompactWithIndexes(
    std::vector<nvme::SecondaryIndexSpec> specs) {
  sim::TaskGroup group(router_->sim_);
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    group.Spawn(CompactShard(i, specs));
  }
  Status s = co_await group.Wait();
  if (s.ok()) {
    for (nvme::SecondaryIndexSpec& spec : specs) {
      RegisterSecondaryIndex(std::move(spec));
    }
  }
  co_return s;
}

sim::Task<Status> ShardedKeyspaceHandle::WaitCompaction() {
  sim::TaskGroup group(router_->sim_);
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    group.Spawn(state_->shards[i].WaitCompaction());
  }
  co_return co_await group.Wait();
}

sim::Task<Status> ShardedKeyspaceHandle::BuildIndexShard(
    std::uint32_t shard, nvme::SecondaryIndexSpec spec) {
  ShardedClient* r = router_;
  co_await r->governor_.Acquire();
  client::KeyspaceHandle& ks = state_->shards[shard];
  Status s = co_await RetryBusy([&] { return ks.CreateSecondaryIndex(spec); });
  r->governor_.Release();
  co_return s;
}

sim::Task<Status> ShardedKeyspaceHandle::CreateSecondaryIndex(
    nvme::SecondaryIndexSpec spec) {
  sim::TaskGroup group(router_->sim_);
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    group.Spawn(BuildIndexShard(i, spec));
  }
  Status s = co_await group.Wait();
  if (s.ok()) RegisterSecondaryIndex(std::move(spec));
  co_return s;
}

sim::Task<Status> ShardedKeyspaceHandle::CreateSecondaryIndexF32(
    const std::string& index_name, std::uint32_t value_offset) {
  nvme::SecondaryIndexSpec spec = nvme::F32Index(index_name, value_offset);
  co_return co_await CreateSecondaryIndex(std::move(spec));
}

// --- routed point reads ---

sim::Task<Result<std::string>> ShardedKeyspaceHandle::Get(
    const std::string& key) {
  const std::uint32_t shard = ShardOf(key);
  router_->shard_counters_[shard].gets->Increment();
  co_return co_await RetryBusy(
      [&] { return state_->shards[shard].Get(key); });
}

sim::Task<client::Future<Result<std::string>>> ShardedKeyspaceHandle::GetAsync(
    const std::string& key) {
  const std::uint32_t shard = ShardOf(key);
  router_->shard_counters_[shard].gets->Increment();
  co_return co_await state_->shards[shard].GetAsync(key);
}

// --- scatter-gather queries ---

template <typename Query, typename Gather>
sim::Task<Status> ShardedKeyspaceHandle::Scatter(const char* op,
                                                 const char* kind,
                                                 const Query& query,
                                                 const Gather& gather) {
  ShardedClient* r = router_;
  const std::uint32_t n = num_shards();
  sim::TraceSpan span(r->sim_, "router", op);
  std::vector<Tick> elapsed(n, 0);
  {
    sim::TaskGroup group(r->sim_);
    for (std::uint32_t i = 0; i < n; ++i) {
      sim::Task<Status> sub = query(i);
      group.Spawn(TimeShard(r->sim_, std::move(sub), &elapsed[i]));
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await group.Wait());
  }
  const Result<std::uint64_t> rows = gather();
  if (!rows.ok()) co_return rows.status();
  FinishScatter(r->sim_, kind, &span, elapsed, *rows);
  co_return Status::Ok();
}

sim::Task<Status> ShardedKeyspaceHandle::Scan(const std::string& lo,
                                              const std::string& hi,
                                              std::uint32_t limit,
                                              Rows* out) {
  std::vector<Rows> per(num_shards());
  // Per-shard limit == global limit: keys are disjoint across shards, so
  // each shard's first `limit` rows are a superset of its contribution to
  // the global first `limit`.
  auto query = [&](std::uint32_t i) {
    return state_->shards[i].Scan(lo, hi, limit, &per[i]);
  };
  auto gather = [&]() -> Result<std::uint64_t> {
    MergeByPrimary(&per, limit, out);
    return out->size();
  };
  co_return co_await Scatter("scan", "scans", query, gather);
}

sim::Task<Status> ShardedKeyspaceHandle::QuerySecondaryRange(
    const std::string& index_name, const std::string& lo_encoded,
    const std::string& hi_encoded, std::uint32_t limit, Rows* out) {
  std::vector<Rows> per(num_shards());
  auto query = [&](std::uint32_t i) {
    return state_->shards[i].QuerySecondaryRange(index_name, lo_encoded,
                                                 hi_encoded, limit, &per[i]);
  };
  auto gather = [&]() -> Result<std::uint64_t> {
    if (per.size() == 1) {
      *out = std::move(per[0]);
    } else {
      Result<nvme::SecondaryIndexSpec> spec = IndexSpec(index_name);
      if (!spec.ok()) return spec.status();
      KVCSD_RETURN_IF_ERROR(MergeBySecondary(&per, *spec, limit, out));
    }
    return out->size();
  };
  co_return co_await Scatter("secondary_scan", "secondary_scans", query,
                             gather);
}

sim::Task<Status> ShardedKeyspaceHandle::QuerySecondaryRangeF32(
    const std::string& index_name, float lo, float hi, std::uint32_t limit,
    Rows* out) {
  const std::string lo_encoded = nvme::EncodeSecondaryF32(lo);
  const std::string hi_encoded = nvme::EncodeSecondaryF32(hi);
  co_return co_await QuerySecondaryRange(index_name, lo_encoded, hi_encoded,
                                         limit, out);
}

sim::Task<Status> ShardedKeyspaceHandle::SelectScatter(
    std::string lo, std::string hi,
    client::KeyspaceHandle::SelectOptions opts, Rows* out) {
  std::vector<Rows> per(num_shards());
  auto query = [&](std::uint32_t i) {
    return state_->shards[i].Select(lo, hi, opts, &per[i]);
  };
  auto gather = [&]() -> Result<std::uint64_t> {
    if (per.size() == 1) {
      *out = std::move(per[0]);
    } else if (opts.index_name.empty()) {
      MergeByPrimary(&per, opts.limit, out);
    } else {
      Result<nvme::SecondaryIndexSpec> spec = IndexSpec(opts.index_name);
      if (!spec.ok()) return spec.status();
      KVCSD_RETURN_IF_ERROR(MergeBySecondary(&per, *spec, opts.limit, out));
    }
    return out->size();
  };
  co_return co_await Scatter("select", "selects", query, gather);
}

sim::Task<Result<nvme::AggregateResult>>
ShardedKeyspaceHandle::AggregateScatter(
    std::string lo, std::string hi, nvme::AggregateSpec agg,
    client::KeyspaceHandle::SelectOptions opts) {
  const std::uint32_t n = num_shards();
  if (opts.limit != 0 && n > 1) {
    co_return Status::InvalidArgument(
        "sharded aggregate cannot honor a matched-row limit (the cap is "
        "not decomposable across shards)");
  }
  std::vector<nvme::AggregateResult> per(n);
  auto query = [&](std::uint32_t i) -> sim::Task<Status> {
    Result<nvme::AggregateResult> part =
        co_await state_->shards[i].Aggregate(lo, hi, agg, opts);
    if (!part.ok()) co_return part.status();
    per[i] = part.value();
    co_return Status::Ok();
  };
  // Deterministic fold in shard order 0..N-1: rows/min/max are exact;
  // sum is exact whenever the attribute values are exactly
  // representable (the bench's integer-valued floats).
  nvme::AggregateResult total;
  auto gather = [&]() -> Result<std::uint64_t> {
    for (const nvme::AggregateResult& part : per) {
      total.rows += part.rows;
      if (!part.valid) continue;
      if (!total.valid) {
        total.min = part.min;
        total.max = part.max;
        total.sum = part.sum;
        total.valid = true;
      } else {
        total.min = std::min(total.min, part.min);
        total.max = std::max(total.max, part.max);
        total.sum += part.sum;
      }
    }
    return total.rows;
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await Scatter("aggregate", "aggregates", query,
                                            gather));
  co_return total;
}

// --- metadata ---

sim::Task<Result<client::KeyspaceHandle::Stat>>
ShardedKeyspaceHandle::GetStat() {
  client::KeyspaceHandle::Stat total;
  bool first = true;
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    Result<client::KeyspaceHandle::Stat> r =
        co_await state_->shards[i].GetStat();
    if (!r.ok()) co_return r.status();
    total.num_kvs += r.value().num_kvs;
    if (first) {
      total.state = r.value().state;
      first = false;
    } else if (total.state != r.value().state) {
      total.state = "MIXED";
    }
  }
  co_return total;
}

}  // namespace kvcsd::router
