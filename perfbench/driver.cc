// The repository benchmark driver: one single-threaded process that runs
// the KV-CSD stack (harness::CsdTestbed over TestbedConfig::Scaled()) through
// one named workload, calling only the public client API, checking every
// answer against a host-side model, and printing every metric by name.
//
//   perfbench_driver --workload=<ingest|point_get|update_mix|vpic_query>
//                    --seed=<n> --seconds=<s> --trace=<0|1> [--scale=<x>]
//
// A run repeats the workload ("reps") on a fresh testbed until --seconds of
// wall time have passed (at least kMinReps times). Simulated-clock metrics
// come from the first rep and every later rep must reproduce them exactly;
// set-up time is the median rep's, peak RSS the process peak, and host CPU
// (a per-layer metric) the median and fastest rep's. With --trace=1 every
// second rep runs with the span tracer on and the run reports per-layer
// metrics instead of the end-to-end ones. README.md lists every metric.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "reps": n,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
// The exit code is 0 only when every answer matched its host model.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/flags.h"
#include "harness/testbed.h"
#include "keygen.h"
#include "nvme/skey.h"
#include "sim/sync.h"
#include "vpic/vpic.h"

namespace {

using kvcsd::Result;
using kvcsd::Rng;
using kvcsd::Status;
using kvcsd::Tick;
using kvcsd::client::KeyspaceHandle;
using perfbench::KeySpace;
using perfbench::ValueFor;
using Rows = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------- sizing
// Dataset and op counts at --scale=1; README.md explains each choice.
// Dataset sizes sit clear below powers of two: the seed adds up to 0.8 %,
// and crossing one would double the program's internal vector capacities
// (peak RSS would then jump with the seed).
constexpr std::uint64_t kIngestKeys = 500000;
constexpr std::uint32_t kIngestWriters = 4;
constexpr std::uint64_t kPointGetKeys = 250000;
constexpr std::uint32_t kGetClients = 16;
constexpr std::uint64_t kPointGetsPerClient = 8192;
constexpr double kAbsentShare = 0.2;
constexpr std::uint64_t kMixKeys = 500000;
constexpr std::uint32_t kMixClients = 8;
constexpr std::uint32_t kMixRounds = 4;
constexpr std::uint64_t kMixOpsPerClientRound = 2048;
constexpr std::uint64_t kVpicParticles = 500000;
constexpr std::uint32_t kVpicFiles = 8;
constexpr std::array<double, 4> kSelectivities = {0.001, 0.01, 0.05, 0.2};
// Read-back verification GETs per client (16 clients; 32 k GETs, so the
// p99.9 has 32 samples beyond it).
constexpr std::uint64_t kReadbackPerClient = 2048;
// The device index cache, scaled down with the datasets (Scaled() derives
// 32 MiB): point_get's 250 k keys make ~6.8 MB of PIDX blocks, over 2x it.
constexpr std::uint64_t kIndexCacheBytes = kvcsd::MiB(3);
constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 2;
constexpr std::size_t kTraceEvents = 400000;

// ---------------------------------------------------------------- clocks
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(Tick t) { return static_cast<double>(t) * 1e-9; }
double Micros(double ns) { return ns * 1e-3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nearest-rank percentile of raw samples (exact, no buckets).
double Percentile(std::vector<Tick> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

// The highest of p99.9 / p99 / p90 / p50 with at least ten samples beyond
// it; *which receives the percentile used.
double TailPercentile(const std::vector<Tick>& samples, double* which) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples.size()) * (100.0 - p) / 100.0 >= 10.0) {
      *which = p;
      return Percentile(samples, p);
    }
  }
  *which = 100.0;
  return Percentile(samples, 100.0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// FNV-1a over answer bytes: the run fingerprint.
void Fold(std::uint64_t* fp, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *fp ^= c;
    *fp *= 0x100000001b3ull;
  }
}
void Fold(std::uint64_t* fp, std::uint64_t v) {
  Fold(fp, std::string(reinterpret_cast<const char*>(&v), sizeof(v)));
}

// ---------------------------------------------------------------- model
// Where a workload's keys live and what each GET must return.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual std::uint64_t present() const = 0;
  virtual std::string Key(std::uint64_t id) const = 0;
  // The value id must have, or nullopt when it must be NotFound.
  virtual std::optional<std::string> Expected(std::uint64_t id) const = 0;
};

// Keys [0, n) loaded with version-0 values; update_mix overrides versions.
class KvOracle : public Oracle {
 public:
  KvOracle(std::uint64_t seed, std::uint64_t n)
      : seed_(seed), keys_(seed, n), version_(n, 0) {}
  std::uint64_t present() const override { return keys_.present(); }
  std::string Key(std::uint64_t id) const override { return keys_.Key(id); }
  std::optional<std::string> Expected(std::uint64_t id) const override {
    if (id >= version_.size() || version_[id] < 0) return std::nullopt;
    return Value(id, static_cast<std::uint64_t>(version_[id]));
  }
  std::string Value(std::uint64_t id, std::uint64_t version) const {
    return ValueFor(seed_, id, version);
  }
  // -1 = deleted.
  std::vector<std::int64_t>& versions() { return version_; }

 private:
  std::uint64_t seed_;
  KeySpace keys_;
  std::vector<std::int64_t> version_;
};

class VpicOracle : public Oracle {
 public:
  explicit VpicOracle(const kvcsd::vpic::Dump* dump) : dump_(dump) {}
  std::uint64_t present() const override { return dump_->num_particles(); }
  std::string Key(std::uint64_t id) const override {
    return kvcsd::MakeFixedKey(id, kvcsd::vpic::kIdBytes);
  }
  std::optional<std::string> Expected(std::uint64_t id) const override {
    if (id >= dump_->num_particles()) return std::nullopt;
    return dump_->all()[id].Payload();
  }

 private:
  const kvcsd::vpic::Dump* dump_;
};

// ---------------------------------------------------------------- rep
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  void Check(const Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
  }
};

using Metrics = std::map<std::string, double>;

// Program-side counters read before and after the measured phase.
struct Snapshot {
  Tick now = 0;
  Tick host_busy = 0;
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t completed = 0;
  std::map<std::string, std::uint64_t> counters;
  std::array<Tick, kvcsd::sim::kActivityCount> dispatch{};
  std::array<Tick, kvcsd::sim::kActivityCount> soc{};
  std::array<Tick, kvcsd::sim::kActivityCount> nand{};
  kvcsd::device::CompactionStats compaction;
  std::uint64_t nand_read = 0;
  std::uint64_t nand_written = 0;

  std::uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// Histograms the per-layer report reads; reset when the measured phase
// starts so their percentiles cover only that phase.
constexpr std::array<const char*, 7> kPhaseHistograms = {
    "client.stage.submit_ns",  "client.stage.queue_wait_ns",
    "client.stage.complete_ns", "device.stage.dispatch_ns",
    "device.cmd.get_ns",       "device.cmd.put_ns",
    "device.recompact.fold_ns"};

constexpr std::array<const char*, 7> kRoles = {
    "klog", "vlog", "pidx", "sidx", "sorted_values", "temp", "meta"};

struct Rep {
  explicit Rep(const kvcsd::harness::TestbedConfig& config)
      : bed(std::make_unique<kvcsd::harness::CsdTestbed>(config)) {}

  kvcsd::sim::Simulation& sim() { return bed->sim(); }
  kvcsd::client::Client& client() { return bed->client(); }

  // Runs `task` and everything it triggers to completion; returns the
  // simulated time it took.
  Tick Run(kvcsd::sim::Task<void> task) {
    const Tick begin = sim().Now();
    sim().Spawn(std::move(task));
    sim().Run();
    return sim().Now() - begin;
  }

  Snapshot Snap() {
    Snapshot s;
    s.now = sim().Now();
    s.host_busy = bed->host_cpu().busy_time();
    s.h2d = bed->queue().host_to_device_bytes();
    s.d2h = bed->queue().device_to_host_bytes();
    s.completed = bed->queue().completed();
    for (const auto& [name, counter] : sim().stats().counters()) {
      s.counters[name] = counter.value();
    }
    s.dispatch = bed->dev().dispatch_meter().TotalBusy();
    s.soc = bed->dev().cpu().meter().TotalBusy();
    s.nand = bed->dev().ssd().nand().meter().TotalBusy();
    s.compaction = bed->dev().compaction_stats();
    s.nand_read = bed->dev().ssd().nand().bytes_read();
    s.nand_written = bed->dev().ssd().nand().bytes_written();
    return s;
  }

  std::unique_ptr<kvcsd::harness::CsdTestbed> bed;
  Tally tally;
  std::uint64_t fingerprint = 0xcbf29ce484222325ull;
  std::uint64_t user_bytes_written = 0;
  std::uint64_t loaded_pairs = 0;
  // Measured-phase bases.
  bool measuring = false;
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t absent_gets = 0;
  std::vector<Tick> get_lat;
  std::vector<Tick> write_lat;
  // Simulated phase times.
  Tick load_time = 0;
  Tick compact_time = 0;
  Tick get_time = 0;
  Tick phase_time = 0;
  Tick mix_time = 0;
  Tick fold_time = 0;
  Tick index_time = 0;
  Tick query_time = 0;
  std::uint64_t mix_ops = 0;
  std::uint64_t delta_index_peak = 0;
  std::uint64_t live_user_bytes = 0;
  double space_amp = 0.0;
  // Host CPU per phase.
  double cpu_load = 0.0;
  double cpu_compact = 0.0;
  double cpu_measured = 0.0;
  double cpu_verify = 0.0;
  double setup_wall = 0.0;
  Snapshot before;
  Snapshot after;
  // Phase histograms (p50/p99/sum in ns) captured when the phase ends.
  std::map<std::string, double> hist;
  // Per-layer self time from the trace (traced reps only).
  Metrics trace;
};

// ---------------------------------------------------------------- tasks
kvcsd::sim::Task<void> CreateKeyspaces(Rep* r, std::string prefix,
                                       std::uint32_t count,
                                       std::vector<KeyspaceHandle>* out) {
  for (std::uint32_t i = 0; i < count; ++i) {
    auto ks = co_await r->client().CreateKeyspace(prefix + std::to_string(i));
    r->tally.Check(ks.status(), "create keyspace");
    out->push_back(ks.ok() ? *ks : KeyspaceHandle{});
  }
}

// One bulk writer: pairs (key(id), value(id)) for its slice of ids.
kvcsd::sim::Task<void> BulkWriterTask(Rep* r, KeyspaceHandle ks,
                                      std::vector<std::pair<std::string,
                                                            std::string>>
                                          pairs,
                                      kvcsd::sim::WaitGroup* wg) {
  auto writer = ks.NewBulkWriter();
  for (const auto& [key, value] : pairs) {
    r->user_bytes_written += key.size() + value.size();
    r->tally.Check(co_await writer.Add(key, value), "bulk add");
  }
  r->tally.Check(co_await writer.Drain(), "bulk drain");
  wg->Done();
}

// Loads every (keyspace, pairs) slice concurrently, one writer each.
Tick BulkLoad(Rep* r,
              std::vector<std::pair<KeyspaceHandle,
                                    std::vector<std::pair<std::string,
                                                          std::string>>>>
                  slices) {
  const Tick begin = r->sim().Now();
  kvcsd::sim::WaitGroup wg(&r->sim());
  wg.Add(static_cast<std::int64_t>(slices.size()));
  for (auto& [ks, pairs] : slices) {
    r->loaded_pairs += pairs.size();
    r->sim().Spawn(BulkWriterTask(r, ks, std::move(pairs), &wg));
  }
  r->sim().Run();
  if (wg.count() != 0) r->tally.Fail("bulk load did not finish");
  return r->sim().Now() - begin;
}

kvcsd::sim::Task<void> CompactTask(Rep* r, KeyspaceHandle ks) {
  r->tally.Check(co_await ks.Compact(), "compact");
  r->tally.Check(co_await ks.WaitCompaction(), "wait compaction");
}

Tick CompactAll(Rep* r, const std::vector<KeyspaceHandle>& handles) {
  const Tick begin = r->sim().Now();
  for (const auto& ks : handles) r->sim().Spawn(CompactTask(r, ks));
  r->sim().Run();
  return r->sim().Now() - begin;
}

// One closed-loop GET client: uniform ids, `absent_share` of them absent.
// Every answer is checked against the oracle; latencies are timed around
// each call when `record` is set.
kvcsd::sim::Task<void> GetClient(Rep* r,
                                 const std::vector<KeyspaceHandle>* handles,
                                 const Oracle* oracle, std::uint64_t seed,
                                 std::uint64_t count, bool record,
                                 std::uint64_t* fp) {
  Rng rng(seed);
  const std::uint64_t n = oracle->present();
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool absent = rng.NextDouble() < kAbsentShare;
    const std::uint64_t id =
        absent ? perfbench::AbsentId(&rng, n) : rng.Uniform(n);
    KeyspaceHandle ks = (*handles)[id % handles->size()];
    const Tick begin = r->sim().Now();
    Result<std::string> got = co_await ks.Get(oracle->Key(id));
    const Tick latency = r->sim().Now() - begin;
    ++r->tally.attempted;
    const std::optional<std::string> want = oracle->Expected(id);
    if (want.has_value()) {
      if (!got.ok()) {
        r->tally.Fail("get present key: " + got.status().ToString());
      } else if (*got != *want) {
        r->tally.Fail("get returned a wrong value");
      } else {
        Fold(fp, *got);
      }
    } else if (got.ok() || !got.status().IsNotFound()) {
      r->tally.Fail("absent key did not return NotFound");
    }
    if (record) r->get_lat.push_back(latency);
    if (r->measuring) {
      ++r->gets;
      if (absent) ++r->absent_gets;
    }
  }
}

// `clients` concurrent GET clients; returns the phase's simulated time.
Tick GetPhase(Rep* r, const std::vector<KeyspaceHandle>& handles,
              const Oracle& oracle, std::uint64_t seed,
              std::uint64_t per_client, bool record) {
  std::vector<std::uint64_t> fps(kGetClients, 0);
  const Tick begin = r->sim().Now();
  for (std::uint32_t c = 0; c < kGetClients; ++c) {
    r->sim().Spawn(GetClient(r, &handles, &oracle,
                             perfbench::Mix64(seed * 131 + c), per_client,
                             record, &fps[c]));
  }
  r->sim().Run();
  for (std::uint64_t fp : fps) Fold(&r->fingerprint, fp);
  return r->sim().Now() - begin;
}

// ---------------------------------------------------------------- workloads
struct Params {
  std::string workload;
  std::uint64_t seed = 0;
  double scale = 1.0;
  bool traced = false;

  std::uint64_t Scaled(std::uint64_t n) const {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
  }
  // A dataset size: Scaled(n) plus a seed-drawn 0..0.8 % so that no
  // simulated-clock figure is independent of the seed.
  std::uint64_t Dataset(std::uint64_t n) const {
    const std::uint64_t base = Scaled(n);
    return base + perfbench::Mix64(seed ^ 0x73697a65) % (base / 128 + 1);
  }
};

kvcsd::harness::TestbedConfig Config() {
  auto config = kvcsd::harness::TestbedConfig::Scaled();
  config.device.index_cache_bytes = kIndexCacheBytes;
  return config;
}

// Pairs for ids [0, n) of `oracle`, split round-robin over `writers`.
std::vector<std::pair<KeyspaceHandle,
                      std::vector<std::pair<std::string, std::string>>>>
KvSlices(const KvOracle& oracle, KeyspaceHandle ks, std::uint32_t writers) {
  std::vector<std::pair<KeyspaceHandle,
                        std::vector<std::pair<std::string, std::string>>>>
      slices(writers);
  for (std::uint32_t w = 0; w < writers; ++w) {
    slices[w].first = ks;
    // Exact capacity: doubling past a power of two would make peak RSS
    // jump with the seed's dataset size.
    slices[w].second.reserve(oracle.present() / writers + 1);
  }
  for (std::uint64_t id = 0; id < oracle.present(); ++id) {
    slices[id % writers].second.emplace_back(oracle.Key(id),
                                             *oracle.Expected(id));
  }
  return slices;
}

// Marks the start of the measured phase: per-phase histograms reset,
// counters snapshotted, tracer on for traced reps.
void BeginMeasured(Rep* r, const Params& run) {
  for (const char* name : kPhaseHistograms) {
    r->sim().stats().histogram(name).Reset();
  }
  if (run.traced) r->sim().tracer().Enable(kTraceEvents);
  r->before = r->Snap();
  r->measuring = true;
}

void TraceSelfTimes(Rep* r);

void EndMeasured(Rep* r, const Params& run) {
  r->measuring = false;
  r->after = r->Snap();
  for (const char* name : kPhaseHistograms) {
    const auto& h = r->sim().stats().histogram(name);
    r->hist[std::string(name) + ".p50"] = h.Percentile(50);
    r->hist[std::string(name) + ".p99"] = h.Percentile(99);
    r->hist[std::string(name) + ".sum"] = static_cast<double>(h.sum());
  }
  if (run.traced) {
    r->sim().tracer().Disable();
    TraceSelfTimes(r);
    r->sim().tracer().Clear();
  }
}

// Sums the zone bytes every role holds (GetHealth, over the wire) and
// divides by the live user bytes of the host model.
kvcsd::sim::Task<void> SpaceAmp(Rep* r) {
  auto health = co_await r->client().GetHealth();
  r->tally.Check(health.status(), "get health");
  if (!health.ok()) co_return;
  std::uint64_t bytes = 0;
  for (const auto& [name, value] : health->gauges) {
    if (name.starts_with("zns.") && name.ends_with(".bytes")) bytes += value;
  }
  r->space_amp = Ratio(static_cast<double>(bytes),
                       static_cast<double>(r->live_user_bytes));
}

// ingest: 4 writers bulk-load one keyspace, then Compact + WaitCompaction.
void Ingest(Rep* r, const Params& run) {
  const double t0 = WallSeconds();
  KvOracle oracle(run.seed, run.Dataset(kIngestKeys));
  std::vector<KeyspaceHandle> handles;
  r->Run(CreateKeyspaces(r, "ingest", 1, &handles));
  auto slices = KvSlices(oracle, handles[0], kIngestWriters);
  r->setup_wall = WallSeconds() - t0;

  BeginMeasured(r, run);
  double cpu = CpuSeconds();
  r->load_time = BulkLoad(r, std::move(slices));
  r->cpu_load = CpuSeconds() - cpu;
  cpu = CpuSeconds();
  r->compact_time = CompactAll(r, handles);
  r->cpu_compact = CpuSeconds() - cpu;
  r->cpu_measured = r->cpu_load + r->cpu_compact;
  r->phase_time = r->load_time + r->compact_time;
  r->ops = oracle.present();
  EndMeasured(r, run);

  cpu = CpuSeconds();
  r->get_time = GetPhase(r, handles, oracle, run.seed,
                         run.Scaled(kReadbackPerClient), true);
  r->live_user_bytes = r->user_bytes_written;
  r->Run(SpaceAmp(r));
  r->cpu_verify = CpuSeconds() - cpu;
}

// point_get: 16 closed-loop clients of uniform GETs over a compacted
// dataset ~2x the index cache; a fifth of the lookups are absent keys.
void PointGet(Rep* r, const Params& run) {
  const double t0 = WallSeconds();
  KvOracle oracle(run.seed, run.Dataset(kPointGetKeys));
  std::vector<KeyspaceHandle> handles;
  r->Run(CreateKeyspaces(r, "point_get", 1, &handles));
  double cpu = CpuSeconds();
  r->load_time = BulkLoad(r, KvSlices(oracle, handles[0], kIngestWriters));
  r->cpu_load = CpuSeconds() - cpu;
  cpu = CpuSeconds();
  r->compact_time = CompactAll(r, handles);
  r->cpu_compact = CpuSeconds() - cpu;
  // Warm-up pass: fills the index cache before timing.
  GetPhase(r, handles, oracle, run.seed ^ 0x5741524d,
           run.Scaled(kPointGetsPerClient) / 4, false);
  r->setup_wall = WallSeconds() - t0;

  BeginMeasured(r, run);
  cpu = CpuSeconds();
  r->get_time = GetPhase(r, handles, oracle, run.seed,
                         run.Scaled(kPointGetsPerClient), true);
  r->cpu_measured = CpuSeconds() - cpu;
  r->phase_time = r->get_time;
  r->ops = r->gets;
  EndMeasured(r, run);

  cpu = CpuSeconds();
  r->live_user_bytes = r->user_bytes_written;
  r->Run(SpaceAmp(r));
  r->cpu_verify = CpuSeconds() - cpu;
}

// update_mix: zipfian 50% GET / 45% PUT / 5% DELETE rounds on a compacted
// keyspace, each followed by a fold. Each client owns the ids congruent to
// its index, so its sync ops on a key are totally ordered and the host
// model is exact for every answer.
struct MixState {
  KvOracle* oracle;
  perfbench::Zipfian zipf;
  std::uint64_t next_version = 0;
};

kvcsd::sim::Task<void> MixClient(Rep* r, KeyspaceHandle ks, MixState* st,
                                 std::uint32_t client, std::uint64_t seed,
                                 std::uint64_t ops) {
  Rng rng(seed);
  auto& versions = st->oracle->versions();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t id = st->zipf.Next(&rng) * kMixClients + client;
    const std::string key = st->oracle->Key(id);
    const double roll = rng.NextDouble();
    ++r->mix_ops;
    ++r->tally.attempted;
    const Tick begin = r->sim().Now();
    if (roll < 0.50) {
      Result<std::string> got = co_await ks.Get(key);
      r->get_lat.push_back(r->sim().Now() - begin);
      ++r->gets;
      const std::optional<std::string> want = st->oracle->Expected(id);
      if (want.has_value() ? (!got.ok() || *got != *want)
                           : (got.ok() || !got.status().IsNotFound())) {
        r->tally.Fail("mix get disagrees with the host model: " +
                      got.status().ToString());
      }
    } else if (roll < 0.95) {
      const std::uint64_t version = ++st->next_version;
      const std::string value = st->oracle->Value(id, version);
      Status s = co_await ks.Put(key, value);
      r->write_lat.push_back(r->sim().Now() - begin);
      r->user_bytes_written += key.size() + value.size();
      if (s.ok()) {
        versions[id] = static_cast<std::int64_t>(version);
      } else {
        r->tally.Fail("mix put: " + s.ToString());
      }
    } else {
      Status s = co_await ks.Delete(key);
      r->write_lat.push_back(r->sim().Now() - begin);
      if (s.ok()) {
        versions[id] = -1;
      } else {
        r->tally.Fail("mix delete: " + s.ToString());
      }
    }
  }
}

kvcsd::sim::Task<void> SyncTask(Rep* r, KeyspaceHandle ks) {
  r->tally.Check(co_await ks.Sync(), "sync");
}

// Full scan after the last fold; must match the host model exactly.
kvcsd::sim::Task<void> VerifyScan(Rep* r, KeyspaceHandle ks,
                                  const KvOracle* oracle,
                                  std::uint64_t live) {
  Rows rows;
  Status s = co_await ks.Scan("", std::string(17, '\xff'), 0, &rows);
  r->tally.Check(s, "verify scan");
  std::uint64_t matched = 0;
  for (const auto& [key, value] : rows) {
    const std::uint64_t id = KeySpace::IdOf(key);
    const std::optional<std::string> want = oracle->Expected(id);
    if (!want.has_value() || *want != value || oracle->Key(id) != key) {
      r->tally.Fail("scan row disagrees with the host model");
      continue;
    }
    ++matched;
    Fold(&r->fingerprint, key);
    Fold(&r->fingerprint, value);
  }
  if (matched != live || rows.size() != live) {
    r->tally.Fail("scan returned " + std::to_string(rows.size()) +
                  " rows, host model has " + std::to_string(live));
  }
}

void UpdateMix(Rep* r, const Params& run) {
  const double t0 = WallSeconds();
  KvOracle oracle(run.seed, run.Dataset(kMixKeys));
  std::vector<KeyspaceHandle> handles;
  r->Run(CreateKeyspaces(r, "update_mix", 1, &handles));
  double cpu = CpuSeconds();
  r->load_time = BulkLoad(r, KvSlices(oracle, handles[0], kIngestWriters));
  r->cpu_load = CpuSeconds() - cpu;
  cpu = CpuSeconds();
  r->compact_time = CompactAll(r, handles);
  r->cpu_compact = CpuSeconds() - cpu;
  MixState st{&oracle, perfbench::Zipfian(oracle.present() / kMixClients), 0};
  r->setup_wall = WallSeconds() - t0;

  BeginMeasured(r, run);
  cpu = CpuSeconds();
  const std::uint64_t ops = run.Scaled(kMixOpsPerClientRound);
  for (std::uint32_t round = 0; round < kMixRounds; ++round) {
    const Tick begin = r->sim().Now();
    for (std::uint32_t c = 0; c < kMixClients; ++c) {
      r->sim().Spawn(MixClient(r, handles[0], &st, c,
                               perfbench::Mix64(run.seed + 977 * round + c),
                               ops));
    }
    r->sim().Run();
    r->Run(SyncTask(r, handles[0]));
    r->mix_time += r->sim().Now() - begin;
    r->delta_index_peak = std::max(
        r->delta_index_peak,
        r->bed->dev().BuildHealthPage().Gauge("device.delta.index_bytes"));
    r->fold_time += CompactAll(r, handles);
  }
  r->cpu_measured = CpuSeconds() - cpu;
  r->phase_time = r->mix_time + r->fold_time;
  r->get_time = r->mix_time;
  r->ops = r->mix_ops;
  EndMeasured(r, run);

  cpu = CpuSeconds();
  std::uint64_t live = 0;
  for (std::uint64_t id = 0; id < oracle.present(); ++id) {
    if (auto v = oracle.Expected(id)) {
      ++live;
      r->live_user_bytes += oracle.Key(id).size() + v->size();
    }
  }
  r->Run(VerifyScan(r, handles[0], &oracle, live));
  r->Run(SpaceAmp(r));
  r->cpu_verify = CpuSeconds() - cpu;
}

// vpic_query: a VPIC dump in F file keyspaces, loaded and compacted in
// set-up; the measured phase builds the energy index on every keyspace and
// sweeps selectivity with secondary range, projected select and aggregate.
kvcsd::sim::Task<void> IndexTask(Rep* r, KeyspaceHandle ks) {
  r->tally.Check(co_await ks.CreateSecondaryIndexF32(
                     "energy", kvcsd::vpic::kEnergyOffset),
                 "create secondary index");
}

struct SweepAnswer {
  std::uint64_t range_hits = 0;
  std::uint64_t select_hits = 0;
  std::vector<kvcsd::nvme::AggregateResult> aggs;
};

kvcsd::sim::Task<void> QueryTask(Rep* r, KeyspaceHandle ks,
                                 const kvcsd::vpic::Dump* dump, float threshold,
                                 std::uint32_t file, SweepAnswer* out) {
  const float inf = std::numeric_limits<float>::infinity();
  Rows rows;
  Status s = co_await ks.QuerySecondaryRangeF32("energy", threshold, inf, 0,
                                                &rows);
  r->tally.Check(s, "secondary range");
  for (const auto& [key, value] : rows) {
    const std::uint64_t id = kvcsd::FixedKeyId(kvcsd::Slice(key));
    if (id >= dump->num_particles() || id % dump->num_files() != file ||
        dump->all()[id].Payload() != value) {
      r->tally.Fail("secondary range returned a wrong particle");
    }
  }
  out->range_hits += rows.size();

  KeyspaceHandle::SelectOptions opts;
  opts.index_name = "energy";
  opts.proj.enabled = true;
  opts.proj.offset = kvcsd::vpic::kEnergyOffset;
  opts.proj.length = 4;
  Rows selected;
  s = co_await ks.Select(kvcsd::nvme::EncodeSecondaryF32(threshold),
                         kvcsd::nvme::EncodeSecondaryF32(inf), opts,
                         &selected);
  r->tally.Check(s, "projected select");
  for (const auto& [key, value] : selected) {
    const std::uint64_t id = kvcsd::FixedKeyId(kvcsd::Slice(key));
    if (id >= dump->num_particles() ||
        dump->all()[id].Payload().substr(kvcsd::vpic::kEnergyOffset, 4) !=
            value) {
      r->tally.Fail("projected select returned a wrong field");
    }
  }
  out->select_hits += selected.size();

  kvcsd::nvme::AggregateSpec spec;
  spec.func = kvcsd::nvme::AggregateFunc::kSum;
  spec.value_offset = kvcsd::vpic::kEnergyOffset;
  spec.value_length = 4;
  spec.type = kvcsd::nvme::SecondaryKeyType::kF32;
  KeyspaceHandle::SelectOptions pred;
  pred.pred = kvcsd::nvme::PredicateF32(kvcsd::nvme::PredicateOp::kGe,
                                        kvcsd::vpic::kEnergyOffset, threshold);
  auto agg = co_await ks.Aggregate("", "\x7f", spec, pred);
  r->tally.Check(agg.status(), "aggregate");
  out->aggs[file] = agg.ok() ? *agg : kvcsd::nvme::AggregateResult{};
}

void VpicQuery(Rep* r, const Params& run) {
  const double t0 = WallSeconds();
  kvcsd::vpic::GeneratorConfig gen;
  gen.num_particles = run.Dataset(kVpicParticles);
  gen.num_files = kVpicFiles;
  gen.seed = run.seed;
  const kvcsd::vpic::Dump dump(gen);
  VpicOracle oracle(&dump);
  std::vector<KeyspaceHandle> handles;
  r->Run(CreateKeyspaces(r, "vpic", kVpicFiles, &handles));
  std::vector<std::pair<KeyspaceHandle,
                        std::vector<std::pair<std::string, std::string>>>>
      slices;
  for (std::uint32_t f = 0; f < kVpicFiles; ++f) {
    slices.emplace_back(handles[f],
                        std::vector<std::pair<std::string, std::string>>{});
    const auto particles = dump.FileParticles(f);
    slices.back().second.reserve(particles.size());
    for (const kvcsd::vpic::Particle* p : particles) {
      slices.back().second.emplace_back(p->Key(), p->Payload());
    }
  }
  double cpu = CpuSeconds();
  r->load_time = BulkLoad(r, std::move(slices));
  r->cpu_load = CpuSeconds() - cpu;
  cpu = CpuSeconds();
  r->compact_time = CompactAll(r, handles);
  r->cpu_compact = CpuSeconds() - cpu;
  r->setup_wall = WallSeconds() - t0;

  BeginMeasured(r, run);
  cpu = CpuSeconds();
  {
    const Tick begin = r->sim().Now();
    for (const auto& ks : handles) r->sim().Spawn(IndexTask(r, ks));
    r->sim().Run();
    r->index_time = r->sim().Now() - begin;
  }
  for (double sel : kSelectivities) {
    const float threshold = dump.EnergyThresholdForSelectivity(sel);
    SweepAnswer answer;
    answer.aggs.resize(kVpicFiles);
    const Tick begin = r->sim().Now();
    for (std::uint32_t f = 0; f < kVpicFiles; ++f) {
      r->sim().Spawn(QueryTask(r, handles[f], &dump, threshold, f, &answer));
    }
    r->sim().Run();
    r->query_time += r->sim().Now() - begin;
    r->ops += 3 * kVpicFiles;
    const std::uint64_t expected = dump.CountAbove(threshold);
    if (answer.range_hits != expected || answer.select_hits != expected) {
      r->tally.Fail("selectivity " + std::to_string(sel) + ": " +
                    std::to_string(answer.range_hits) + " range / " +
                    std::to_string(answer.select_hits) +
                    " select hits, host model has " +
                    std::to_string(expected));
    }
    Fold(&r->fingerprint, answer.range_hits);
    for (std::uint32_t f = 0; f < kVpicFiles; ++f) {
      const auto host = dump.FileEnergyAggregate(f, threshold);
      const auto& dev = answer.aggs[f];
      if (dev.rows != host.rows || dev.valid != host.valid ||
          dev.min != host.min || dev.max != host.max || dev.sum != host.sum) {
        r->tally.Fail("aggregate of file " + std::to_string(f) +
                      " is not bit-identical to the host model");
      }
      Fold(&r->fingerprint, std::bit_cast<std::uint64_t>(dev.sum));
    }
  }
  r->cpu_measured = CpuSeconds() - cpu;
  r->phase_time = r->index_time + r->query_time;
  EndMeasured(r, run);

  cpu = CpuSeconds();
  r->get_time = GetPhase(r, handles, oracle, run.seed,
                         run.Scaled(kReadbackPerClient), true);
  r->live_user_bytes = r->user_bytes_written;
  r->Run(SpaceAmp(r));
  r->cpu_verify = CpuSeconds() - cpu;
}

// ---------------------------------------------------------------- trace
// Per-command self time from the program's own spans, matched by cmd_id:
//   client span     submit stamp -> reap (whole host-visible round trip)
//   nvme span       starts at the submission DMA
//   queue_wait      SQ enqueue -> device dequeue
//   device span     opcode execution on the device
//   complete        completion DMA
// A layer's self time is its interval minus the children it covers; the
// parts add up to the client span exactly.
struct CmdSpans {
  double client_b = -1, client_e = -1;
  double nvme_b = -1;
  double wait_b = -1, wait_e = -1;
  double dev_b = -1;
  double done_b = -1, done_e = -1;
};

// Extracts "key":<number> or "key":"<string>" from one trace JSON line.
std::string Field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  at += needle.size();
  if (line[at] == '"') {
    const std::size_t end = line.find('"', at + 1);
    return line.substr(at + 1, end - at - 1);
  }
  const std::size_t end = line.find_first_of(",}", at);
  return line.substr(at, end - at);
}

void TraceSelfTimes(Rep* r) {
  const std::string json = r->sim().tracer().ToJson();
  std::map<std::string, std::string> tracks;
  std::map<std::uint64_t, CmdSpans> cmds;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    const std::string ph = Field(line, "ph");
    if (ph == "M") {
      const std::size_t args = line.find("\"args\"");
      if (Field(line, "name") == "thread_name" && args != std::string::npos) {
        tracks[Field(line, "tid")] = Field(line.substr(args), "name");
      }
      continue;
    }
    if (ph != "X") continue;
    const std::string id = Field(line, "cmd_id");
    if (id.empty()) continue;
    const std::string track = tracks[Field(line, "tid")];
    const double b = std::stod(Field(line, "ts"));
    const double e = b + std::stod(Field(line, "dur"));
    CmdSpans& c = cmds[std::stoull(id)];
    if (track == "client") {
      c.client_b = b;
      c.client_e = e;
    } else if (track == "nvme") {
      c.nvme_b = b;
    } else if (track == "nvme.sq") {
      c.wait_b = b;
      c.wait_e = e;
    } else if (track == "device") {
      c.dev_b = b;
    } else if (track == "nvme.cq") {
      c.done_b = b;
      c.done_e = e;
    }
  }
  double host = 0, submit = 0, wait = 0, dispatch = 0, device = 0,
         complete = 0, total = 0;
  std::uint64_t n = 0;
  for (const auto& [id, c] : cmds) {
    if (c.client_b < 0 || c.nvme_b < 0 || c.wait_b < 0 || c.dev_b < 0 ||
        c.done_b < 0) {
      continue;  // dropped past the event cap, or not a client command
    }
    ++n;
    total += c.client_e - c.client_b;
    host += (c.nvme_b - c.client_b) + (c.client_e - c.done_e);
    submit += c.wait_b - c.nvme_b;
    wait += c.wait_e - c.wait_b;
    dispatch += c.dev_b - c.wait_e;
    device += c.done_b - c.dev_b;
    complete += c.done_e - c.done_b;
  }
  const double cmds_n = static_cast<double>(n);
  // Trace timestamps are microseconds.
  r->trace["trace.cmds"] = cmds_n;
  r->trace["trace.client_self_us"] = Ratio(host, cmds_n);
  r->trace["trace.submit_self_us"] = Ratio(submit, cmds_n);
  r->trace["trace.sq_wait_self_us"] = Ratio(wait, cmds_n);
  r->trace["trace.dispatch_self_us"] = Ratio(dispatch, cmds_n);
  r->trace["trace.device_self_us"] = Ratio(device, cmds_n);
  r->trace["trace.complete_self_us"] = Ratio(complete, cmds_n);
  r->trace["trace.round_trip_us"] = Ratio(total, cmds_n);
  r->trace["trace.dropped_events"] =
      static_cast<double>(r->sim().tracer().dropped());
}

// ---------------------------------------------------------------- report
struct Unit {
  const char* name;
  const char* unit;
};

// End-to-end metrics (BENCHMARK.json "end_to_end"), in report order.
constexpr std::array<Unit, 10> kEndToEnd = {{
    {"put_kops", "kops/s"},
    {"compact_s", "s"},
    {"write_amp", "ratio"},
    {"space_amp", "ratio"},
    {"get_kops", "kops/s"},
    {"get_mean_us", "us"},
    {"get_p999_us", "us"},
    {"phase_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
}};

// Per-layer units follow the name: *_s and host.cpu_s.* seconds, *_us
// microseconds, ns_per_cmd nanoseconds, *_kops
// thousands of ops per simulated second, *bytes* per op where the name says
// per_op/per_get, shares and busy fractions are ratios, the rest counts.
std::string UnitOf(const std::string& name) {
  if (name.ends_with("_s") || name.starts_with("host.cpu_s.")) return "s";
  if (name.ends_with("_ns") || name.ends_with("ns_per_cmd")) return "ns";
  if (name.ends_with("percentile")) return "%";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_kops")) return "kops/s";
  if (name.find("bytes_per_") != std::string::npos) return "B/op";
  if (name.ends_with("_bytes") || name.ends_with("bytes_read") ||
      name.ends_with("bytes_written") || name.ends_with("bytes_peak")) {
    return "bytes";
  }
  if (name.find("ratio") != std::string::npos ||
      name.find("busy_frac") != std::string::npos ||
      name.find("_per_") != std::string::npos ||
      name.ends_with("overhead")) {
    return "ratio";
  }
  return "count";
}

// p50 or p99 of a phase histogram, in microseconds.
double Hist(Rep& r, const char* name, int p) {
  return Micros(r.hist[std::string(name) + (p == 50 ? ".p50" : ".p99")]);
}

// Simulated-clock metrics of one rep: the end-to-end ones plus every
// per-layer one the sim clock and the program's counters give. Identical
// on every rep of one seed, traced or not.
Metrics SimMetrics(Rep& r) {
  Metrics m;
  const Snapshot& a = r.before;
  const Snapshot& b = r.after;
  auto delta = [&](const std::string& name) {
    return static_cast<double>(b.Counter(name) - a.Counter(name));
  };
  const double elapsed = static_cast<double>(b.now - a.now);
  const double ops = static_cast<double>(r.ops);
  const double gets = static_cast<double>(r.gets);
  const double user_bytes = static_cast<double>(r.user_bytes_written);
  double tail_p = 0.0;

  // --- end to end
  m["put_kops"] = Ratio(static_cast<double>(r.loaded_pairs),
                        Seconds(r.load_time)) / 1e3;
  m["compact_s"] = Seconds(r.compact_time);
  m["write_amp"] = Ratio(static_cast<double>(b.nand_written), user_bytes);
  m["space_amp"] = r.space_amp;
  m["get_kops"] = Ratio(static_cast<double>(r.get_lat.size()),
                        Seconds(r.get_time)) / 1e3;
  double sum = 0;
  for (Tick t : r.get_lat) sum += static_cast<double>(t);
  m["get_mean_us"] =
      Micros(Ratio(sum, static_cast<double>(r.get_lat.size())));
  m["get_p999_us"] = Micros(TailPercentile(r.get_lat, &tail_p));
  m["phase_s"] = Seconds(r.phase_time);

  // --- bases every ratio below refers to
  m["base.ops"] = ops;
  m["base.gets"] = gets;
  m["base.absent_gets"] = static_cast<double>(r.absent_gets);
  m["base.get_samples"] = static_cast<double>(r.get_lat.size());
  m["base.get_tail_percentile"] = tail_p;
  // The median GET sits on a fixed service-time step (the same at every
  // seed), so it is reported here and the mean is the end-to-end figure.
  m["get.p50_us"] = Micros(Percentile(r.get_lat, 50.0));
  m["base.elapsed_s"] = Seconds(b.now - a.now);
  m["base.user_bytes"] = user_bytes;

  // --- workload phases
  m["phase.mix_kops"] = Ratio(static_cast<double>(r.mix_ops),
                              Seconds(r.mix_time)) / 1e3;
  double write_p = 0.0;
  m["phase.write_p999_us"] = Micros(TailPercentile(r.write_lat, &write_p));
  m["phase.fold_s"] = Seconds(r.fold_time);
  m["phase.index_s"] = Seconds(r.index_time);
  m["phase.query_s"] = Seconds(r.query_time);

  // --- client
  m["client.host_busy_s"] = Seconds(b.host_busy - a.host_busy);
  m["client.cmds_per_op"] =
      Ratio(static_cast<double>(b.completed - a.completed), ops);
  m["client.frames"] = delta("device.cmd.bulk_store");

  // --- nvme
  m["nvme.h2d_bytes_per_op"] = Ratio(static_cast<double>(b.h2d - a.h2d), ops);
  m["nvme.d2h_bytes_per_op"] = Ratio(static_cast<double>(b.d2h - a.d2h), ops);
  m["nvme.queue_wait_p50_us"] = Hist(r, "client.stage.queue_wait_ns", 50);
  m["nvme.queue_wait_p99_us"] = Hist(r, "client.stage.queue_wait_ns", 99);
  m["nvme.submit_p50_us"] = Hist(r, "client.stage.submit_ns", 50);
  m["nvme.complete_p50_us"] = Hist(r, "client.stage.complete_ns", 50);

  // --- kvcsd.dispatch
  double dispatch = 0;
  for (std::size_t i = 0; i < a.dispatch.size(); ++i) {
    dispatch += static_cast<double>(b.dispatch[i] - a.dispatch[i]);
  }
  m["dispatch.busy_frac"] = Ratio(dispatch, elapsed);
  m["dispatch.wait_p50_us"] = Hist(r, "device.stage.dispatch_ns", 50);
  m["dispatch.wait_p99_us"] = Hist(r, "device.stage.dispatch_ns", 99);

  // --- kvcsd.query, index cache, bloom, gather, prefetch
  auto soc = [&](kvcsd::sim::Activity act) {
    const auto i = static_cast<std::size_t>(act);
    return Seconds(b.soc[i] - a.soc[i]);
  };
  const double hits = delta("device.read_cache.hits");
  const double lookups = hits + delta("device.read_cache.misses");
  const double absent = static_cast<double>(r.absent_gets);
  m["index_cache.lookups"] = lookups;
  m["index_cache.hit_ratio"] = Ratio(hits, lookups);
  m["bloom.negative_ratio"] = Ratio(delta("device.bloom.negative"), absent);
  m["bloom.false_positive_ratio"] =
      Ratio(delta("device.bloom.false_positive"), absent);
  m["gather.ranges_per_ref"] =
      Ratio(delta("device.gather.ranges"), delta("device.gather.refs"));
  m["prefetch.issued"] = delta("device.prefetch.issued");
  m["prefetch.wasted_ratio"] =
      Ratio(delta("device.prefetch.wasted"), delta("device.prefetch.issued"));
  m["query.delta_hit_ratio"] = Ratio(delta("device.query.delta_hits"), gets);
  m["query.exec_p50_us"] = Hist(r, "device.cmd.get_ns", 50);
  m["soc.host_read_busy_s"] = soc(kvcsd::sim::Activity::kHostRead);

  // --- kvcsd.compactor
  m["compactor.phase1_s"] =
      Seconds(b.compaction.phase1_ticks - a.compaction.phase1_ticks);
  m["compactor.phase2_s"] =
      Seconds(b.compaction.phase2_ticks - a.compaction.phase2_ticks);
  m["compactor.bytes_read"] =
      static_cast<double>(b.compaction.bytes_read - a.compaction.bytes_read);
  m["compactor.bytes_written"] = static_cast<double>(
      b.compaction.bytes_written - a.compaction.bytes_written);
  m["soc.compact_busy_s"] = soc(kvcsd::sim::Activity::kCompact);

  // --- kvcsd.recompact + delta
  const double retained = delta("device.recompact.pidx_blocks_retained");
  m["recompact.fold_s"] = r.hist["device.recompact.fold_ns.sum"] * 1e-9;
  m["recompact.pidx_retained_ratio"] = Ratio(
      retained, retained + delta("device.recompact.pidx_blocks_rebuilt"));
  m["recompact.delta_keys"] = delta("device.recompact.delta_keys");
  m["delta.index_bytes_peak"] = static_cast<double>(r.delta_index_peak);
  m["write.exec_p99_us"] = Hist(r, "device.cmd.put_ns", 99);
  m["soc.recompact_busy_s"] = soc(kvcsd::sim::Activity::kRecompact);

  // --- kvcsd.select
  m["select.match_ratio"] = Ratio(delta("device.select.rows_matched"),
                                  delta("device.select.rows_scanned"));
  m["select.return_ratio"] = Ratio(delta("device.select.bytes_returned"),
                                   delta("device.select.bytes_scanned"));
  m["soc.pushdown_busy_s"] = soc(kvcsd::sim::Activity::kPushdown);

  // --- storage.zns: appends over the whole run per user byte written,
  // reads over the measured phase.
  double resets = 0;
  for (const char* role : kRoles) {
    const std::string p = std::string("zns.") + role + ".";
    m[p + "append_per_user_byte"] =
        Ratio(static_cast<double>(b.Counter(p + "append_bytes")), user_bytes);
    m[p + "read_bytes"] = delta(p + "read_bytes");
    resets += delta(p + "resets");
  }
  m["zns.resets"] = resets;

  // --- storage.nand
  m["nand.read_bytes_per_get"] =
      Ratio(static_cast<double>(b.nand_read - a.nand_read), gets);
  const double channels = static_cast<double>(
      r.bed->dev().ssd().nand().config().channels);
  for (std::size_t i = 0; i < a.nand.size(); ++i) {
    m[std::string("nand.busy_frac.") +
      kvcsd::sim::ActivityName(static_cast<kvcsd::sim::Activity>(i))] =
        Ratio(static_cast<double>(b.nand[i] - a.nand[i]), elapsed * channels);
  }
  return m;
}

struct RepResult {
  bool traced = false;
  Metrics sim;
  Metrics trace;
  std::uint64_t fingerprint = 0;
  Tally tally;
  double setup = 0, cpu_load = 0, cpu_compact = 0, cpu_measured = 0,
         cpu_verify = 0;
  std::uint64_t commands = 0;
};

RepResult RunRep(const Params& run) {
  const double t0 = WallSeconds();
  Rep r(Config());
  const double construct = WallSeconds() - t0;
  if (run.workload == "ingest") {
    Ingest(&r, run);
  } else if (run.workload == "point_get") {
    PointGet(&r, run);
  } else if (run.workload == "update_mix") {
    UpdateMix(&r, run);
  } else {
    VpicQuery(&r, run);
  }
  RepResult out;
  out.traced = run.traced;
  out.sim = SimMetrics(r);
  out.trace = r.trace;
  out.fingerprint = r.fingerprint;
  out.tally = r.tally;
  out.setup = construct + r.setup_wall;
  out.cpu_load = r.cpu_load;
  out.cpu_compact = r.cpu_compact;
  out.cpu_measured = r.cpu_measured;
  out.cpu_verify = r.cpu_verify;
  out.commands = r.after.completed - r.before.completed;
  // Only the device main loop and the client reactor may stay parked.
  if (r.sim().live_processes() > 2) {
    out.tally.Fail(std::to_string(r.sim().live_processes()) +
                   " simulated processes stuck");
  }
  return out;
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  kvcsd::harness::Flags flags(argc, argv);
  Params run;
  run.workload = flags.GetString("workload", "");
  run.seed = flags.GetUint("seed", 1);
  run.scale = flags.GetDouble("scale", 1.0);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetBool("trace", false);
  if (run.workload != "ingest" && run.workload != "point_get" &&
      run.workload != "update_mix" && run.workload != "vpic_query") {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=<ingest|point_get|"
                 "update_mix|vpic_query> --seed=N --seconds=S --trace=0|1 "
                 "[--scale=X]\n");
    return 2;
  }

  // Reps: fresh testbed each; with tracing on, every second rep is traced.
  const double start = WallSeconds();
  std::vector<RepResult> reps;
  const int min_reps = trace ? 2 * kMinTracedReps : kMinReps;
  for (int k = 0;; ++k) {
    run.traced = trace && k % 2 == 1;
    reps.push_back(RunRep(run));
    // Hand the rep's freed heap back to the OS, so every rep starts from
    // the same footprint and peak RSS is one rep's peak, not fragmentation.
    malloc_trim(0);
    const RepResult& last = reps.back();
    std::printf("# rep %d%s: setup %.3f s, measured cpu %.3f s, %" PRIu64
                " ops attempted, %" PRIu64 " failed\n",
                k, last.traced ? " (traced)" : "", last.setup,
                last.cpu_measured, last.tally.attempted, last.tally.failed);
    if (last.tally.failed != 0) break;
    if (k + 1 >= min_reps && WallSeconds() - start >= seconds) break;
  }

  // Determinism: every rep reproduces rep 0's simulated-clock metrics and
  // fingerprint; every traced rep reproduces the first traced rep's spans.
  std::uint64_t attempted = 0, failed = 0;
  const RepResult* first_traced = nullptr;
  for (const RepResult& rep : reps) {
    attempted += rep.tally.attempted;
    failed += rep.tally.failed;
    if (rep.sim != reps[0].sim || rep.fingerprint != reps[0].fingerprint) {
      std::fprintf(stderr, "FAIL: rep is not deterministic%s\n",
                   rep.traced ? " (traced vs untraced)" : "");
      ++failed;
    }
    if (rep.traced) {
      if (first_traced == nullptr) first_traced = &rep;
      if (rep.trace != first_traced->trace) {
        std::fprintf(stderr, "FAIL: traced reps disagree\n");
        ++failed;
      }
    }
  }

  std::vector<double> setup, cpu_measured, cpu_traced, cpu_load, cpu_compact,
      cpu_verify, ns_per_cmd;
  for (const RepResult& rep : reps) {
    setup.push_back(rep.setup);
    if (rep.traced) {
      cpu_traced.push_back(rep.cpu_measured);
      continue;
    }
    cpu_measured.push_back(rep.cpu_measured);
    cpu_load.push_back(rep.cpu_load);
    cpu_compact.push_back(rep.cpu_compact);
    cpu_verify.push_back(rep.cpu_verify);
    ns_per_cmd.push_back(Ratio(rep.cpu_measured * 1e9,
                               static_cast<double>(rep.commands)));
  }

  Metrics metrics;
  if (!trace) {
    metrics = reps[0].sim;
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["setup_s"] = Median(setup);
  } else {
    metrics = reps[0].sim;
    if (first_traced != nullptr) {
      for (const auto& [name, value] : first_traced->trace) {
        metrics[name] = value;
      }
    }
    metrics["host.cpu_s.load"] = Median(cpu_load);
    metrics["host.cpu_s.compact"] = Median(cpu_compact);
    metrics["host.cpu_s.measured"] = Median(cpu_measured);
    // Other tenants of a shared machine only ever add CPU time.
    metrics["host.cpu_s.measured_min"] =
        *std::min_element(cpu_measured.begin(), cpu_measured.end());
    metrics["host.cpu_s.verify"] = Median(cpu_verify);
    metrics["host.ns_per_cmd"] = Median(ns_per_cmd);
    metrics["host.trace_overhead"] =
        Ratio(Median(cpu_traced), Median(cpu_measured));
  }

  // Human-readable table, then the one-line result.
  std::vector<std::pair<std::string, std::string>> report;
  if (!trace) {
    for (const Unit& u : kEndToEnd) report.emplace_back(u.name, u.unit);
  } else {
    for (const auto& [name, value] : metrics) {
      bool e2e = false;
      for (const Unit& u : kEndToEnd) e2e = e2e || name == u.name;
      if (!e2e) report.emplace_back(name, UnitOf(name));
    }
  }
  std::printf("# %s seed=%" PRIu64 " reps=%zu fingerprint=%016" PRIx64 "\n",
              run.workload.c_str(), run.seed, reps.size(),
              reps[0].fingerprint);
  for (const auto& [name, unit] : report) {
    std::printf("# %-36s %14.6g %s\n", name.c_str(), metrics[name],
                unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"reps\": %zu, \"fingerprint\": "
              "\"%016" PRIx64 "\", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed, reps.size(),
              reps[0].fingerprint);
  bool first = true;
  for (const auto& [name, unit] : report) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(metrics[name]);
    std::printf(", \"unit\": \"%s\"}", unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

