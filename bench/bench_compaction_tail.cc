// GET latency while another keyspace compacts and then folds (DESIGN.md
// §13): the device's front end and every background job share the SoC
// cores, so a GET queued behind a compaction's or a fold's charge waits
// for it.
//
// Set-up (untimed): `keyspaces` keyspaces of `keys` pairs each are loaded
// and compacted; one more keyspace, "busy", is loaded with `busy_keys`
// pairs in a shuffled order and left WRITABLE.
//
// Two phases of closed-loop GETs over the compacted keyspaces, one
// outstanding GET per client:
//   * alone: each of `clients` clients issues `gets` GETs while nothing
//     else runs;
//   * busy: the same clients issue GETs for as long as "busy" compacts,
//     takes `busy_keys / 8` overwrites into its delta and folds them.
//
// Each phase's clients record their own histogram (tail.alone.cmd.get_ns,
// tail.busy.cmd.get_ns, with p50, p99, p999 and max), whose p99 the perf
// gate checks. The report also carries, per phase, the throughput and the
// highest of p95/p99/p999 with at least ten samples beyond it, keyed by
// that percentile (as bench_multi_tenant does); and the compaction's and
// the fold's time.
//
// Flags: --keyspaces=8 --keys=16384 --clients=8 --gets=1000
//        --busy_keys=524288 --json=PATH --trace=PATH --telemetry=PATH
//
// Exits non-zero if any load, compaction, fold or GET fails, or a GET
// returns a value other than the one last written.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

std::string ValueFor(std::uint64_t keyspace, std::uint64_t id,
                     std::uint64_t version) {
  std::string v(32, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (keyspace * 131 + id + version * 17 +
                                    i * 7) % 26);
  }
  return v;
}

struct ReaderResult {
  std::uint64_t gets = 0;
  std::uint64_t failed = 0;  // failed GETs and wrong answers
};

// Closed-loop GETs over the compacted keyspaces: `count` of them, or, with
// `stop` set, until *stop turns true.
sim::Task<void> Reader(std::vector<client::KeyspaceHandle>* handles,
                       std::uint64_t client, std::uint64_t keys,
                       std::uint64_t count, const bool* stop,
                       ReaderResult* out) {
  for (std::uint64_t i = 0;
       stop != nullptr ? !*stop : i < count; ++i) {
    const std::uint64_t ks = (i + client) % handles->size();
    const std::uint64_t id = (i * 7919 + client * 104729) % keys;
    auto got = co_await (*handles)[ks].Get(MakeFixedKey(id));
    ++out->gets;
    if (!got.ok() || *got != ValueFor(ks, id, 0)) ++out->failed;
  }
}

// Compacts "busy", writes `updates` overwrites into its delta and folds
// them; sets *done when finished.
sim::Task<void> BusyJob(sim::Simulation* sim, client::KeyspaceHandle busy,
                        std::uint64_t keys, std::uint64_t updates,
                        Tick* compact_ticks, Tick* fold_ticks, bool* ok,
                        bool* done) {
  const Tick start = sim->Now();
  *ok = CheckOk(co_await busy.Compact(), "busy compact");
  if (*ok) *ok = CheckOk(co_await busy.WaitCompaction(), "busy compaction");
  *compact_ticks = sim->Now() - start;
  if (*ok) {
    auto writer = busy.NewBulkWriter();
    for (std::uint64_t i = 0; i < updates && *ok; ++i) {
      const std::uint64_t id = (i * 8) % keys;
      *ok = CheckOk(co_await writer.Add(MakeFixedKey(id),
                                        ValueFor(99, id, 1)),
                    "busy update");
    }
    if (*ok) *ok = CheckOk(co_await writer.Drain(), "busy update drain");
  }
  const Tick fold_start = sim->Now();
  if (*ok) *ok = CheckOk(co_await busy.Compact(), "busy fold");
  if (*ok) *ok = CheckOk(co_await busy.WaitCompaction(), "busy fold wait");
  *fold_ticks = sim->Now() - fold_start;
  // The fold's answers: an overwritten key and one it left alone.
  for (const std::uint64_t id : {std::uint64_t{8}, std::uint64_t{9}}) {
    if (!*ok) break;
    auto got = co_await busy.Get(MakeFixedKey(id));
    const std::string want = ValueFor(99, id, id % 8 == 0 ? 1 : 0);
    *ok = CheckOk(got.status(), "busy get") && *got == want;
  }
  *done = true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keyspaces = flags.GetUint("keyspaces", 8);
  const std::uint64_t keys = flags.GetUint("keys", 16384);
  const std::uint64_t clients = flags.GetUint("clients", 8);
  const std::uint64_t gets = flags.GetUint("gets", 1000);
  const std::uint64_t busy_keys = flags.GetUint("busy_keys", 524288);
  if (keyspaces == 0 || keys == 0 || clients == 0 || gets == 0 ||
      busy_keys < 16) {
    std::fprintf(stderr,
                 "--keyspaces, --keys, --clients and --gets must be > 0, "
                 "--busy_keys >= 16\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("compaction_tail", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  std::printf("%s", config.Describe().c_str());
  std::printf(
      "GETs from %s clients over %s compacted keyspaces of %s keys, alone "
      "and while a %s-key keyspace compacts and folds\n",
      FormatCount(clients).c_str(), FormatCount(keyspaces).c_str(),
      FormatCount(keys).c_str(), FormatCount(busy_keys).c_str());

  CsdTestbed bed(config);
  bool ok = true;
  std::vector<client::KeyspaceHandle> handles(keyspaces);
  client::KeyspaceHandle busy;
  RunPhase(bed.sim(), keyspaces + 1, [&](std::size_t i) {
    return [](client::Client* db, std::size_t index, std::uint64_t n,
              bool is_busy, client::KeyspaceHandle* out,
              bool* loaded) -> sim::Task<void> {
      auto value_for = [index, is_busy](std::uint64_t id) {
        return ValueFor(is_busy ? 99 : index, id, 0);
      };
      if (is_busy) {
        auto ks =
            co_await BulkLoadKeyspace(*db, "busy", ShuffledIds(n), value_for);
        if (!CheckOk(ks.status(), "load busy")) {
          *loaded = false;
          co_return;
        }
        *out = *ks;
        co_return;
      }
      const std::string name = "ks" + std::to_string(index);
      auto ks = co_await LoadKeyspace(*db, name, SequentialIds(n), value_for,
                                      {});
      if (!CheckOk(ks.status(), "load " + name)) {
        *loaded = false;
        co_return;
      }
      *out = *ks;
    }(&bed.client(), i, i < keyspaces ? keys : busy_keys, i == keyspaces,
      i < keyspaces ? &handles[i] : &busy, &ok);
  });

  struct Phase {
    const char* name;
    Tick ticks = 0;
    std::uint64_t gets = 0;
    sim::HistogramSummary summary{};
  };
  Phase phases[] = {{"alone", 0, 0, {}}, {"busy", 0, 0, {}}};
  Tick compact_ticks = 0;
  Tick fold_ticks = 0;
  std::uint64_t failed = 0;
  for (Phase& phase : phases) {
    if (!ok) break;
    const bool during = std::string(phase.name) == "busy";
    const std::string prefix = std::string("tail.") + phase.name + ".";
    std::vector<std::unique_ptr<client::Client>> readers;
    for (std::uint64_t c = 0; c < clients; ++c) {
      client::ClientConfig cc;
      cc.stats_prefix = prefix;
      readers.push_back(std::make_unique<client::Client>(
          &bed.queue(), &bed.host_cpu(), hostenv::CostModel::Host(), cc));
    }
    // Each reader opens its own handles, so its GETs go through its client.
    std::vector<std::vector<client::KeyspaceHandle>> reader_handles(clients);
    RunPhase(bed.sim(), clients, [&](std::size_t c) {
      return [](client::Client* db, std::uint64_t n,
                std::vector<client::KeyspaceHandle>* out,
                bool* opened) -> sim::Task<void> {
        for (std::uint64_t k = 0; k < n; ++k) {
          auto ks = co_await db->OpenKeyspace("ks" + std::to_string(k));
          if (!CheckOk(ks.status(), "open")) {
            *opened = false;
            co_return;
          }
          out->push_back(*ks);
        }
      }(readers[c].get(), keyspaces, &reader_handles[c], &ok);
    });
    if (!ok) break;
    std::vector<ReaderResult> results(clients);
    bool done = false;
    phase.ticks = RunPhase(bed.sim(), clients + (during ? 1 : 0),
                           [&](std::size_t i) -> sim::Task<void> {
      if (i == clients) {
        return BusyJob(&bed.sim(), busy, busy_keys, busy_keys / 8,
                       &compact_ticks, &fold_ticks, &ok, &done);
      }
      return Reader(&reader_handles[i], i, keys, gets,
                    during ? &done : nullptr, &results[i]);
    });
    for (const ReaderResult& r : results) {
      phase.gets += r.gets;
      failed += r.failed;
    }
    phase.summary =
        bed.sim().stats().histogram(prefix + "cmd.get_ns").Summary();
  }
  if (failed > 0) {
    std::fprintf(stderr, "FAIL: %llu GETs failed or answered wrong\n",
                 static_cast<unsigned long long>(failed));
    ok = false;
  }

  Table table("GET latency, alone and during a compaction and a fold",
              {"phase", "GETs", "GET keys/s", "p50", "p99", "p999", "max"});
  for (const Phase& phase : phases) {
    const std::string key = std::string("csd.tail.") + phase.name;
    const double per_sec =
        phase.ticks > 0 ? static_cast<double>(phase.gets) * 1e9 /
                              static_cast<double>(phase.ticks)
                        : 0.0;
    report.AddMetric(key + ".gets", phase.gets);
    report.AddMetric(key + ".gets_per_sec", per_sec);
    if (const auto tail = phase.summary.WellSampledTail()) {
      report.AddMetric(key + ".get_" + tail->name + "_ns", tail->value);
    }
    table.AddRow({phase.name, FormatCount(phase.gets),
                  FormatCount(static_cast<std::uint64_t>(per_sec)),
                  FormatSeconds(static_cast<Tick>(phase.summary.p50)),
                  FormatSeconds(static_cast<Tick>(phase.summary.p99)),
                  FormatSeconds(static_cast<Tick>(phase.summary.p999)),
                  FormatSeconds(static_cast<Tick>(phase.summary.max))});
  }
  report.AddMetric("csd.tail.busy.compact_ns", compact_ticks);
  report.AddMetric("csd.tail.busy.fold_ns", fold_ticks);
  table.Print();
  std::printf("busy keyspace: compaction %s, fold %s\n",
              FormatSeconds(compact_ticks).c_str(),
              FormatSeconds(fold_ticks).c_str());
  report.AddStats(bed.sim().stats(), "tail.");
  report.AddTable(table);
  report.WriteIfRequested();
  return ok ? 0 : 1;
}
