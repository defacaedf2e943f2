// Multi-tenant async throughput bench (DESIGN.md §11): N tenants, each
// its own client pinned to SQ/CQ pair (tenant % queues), drive open-loop
// windowed streams of async PUTs and then async GETs while the SQ/CQ
// pair count sweeps 1 -> 2 -> 4 at fixed total offered load (tenants x
// per-queue depth outstanding commands).
//
// What must hold:
//   * aggregate PUT and GET throughput is monotonically non-decreasing
//     in the number of queue pairs (more pairs = more outstanding
//     commands = more device concurrency, until the SoC cores saturate),
//     and the 4-queue point beats the 1-queue point outright;
//   * a crc32c fingerprint over every issued PUT and every GET answer is
//     identical at every sweep point: queue topology changes timing,
//     never contents;
//   * per-tenant latency distributions stay separable — each tenant
//     records its own client.t<i>.cmd.{put,get}_ns histogram, and the
//     p50/p99/p999 of every tenant lands in the JSON report.
//
// Flags: --tenants=4 --puts_per_tenant=4096 --gets_per_tenant=1024
//        --depth=4 --value_bytes=256
//        --json=PATH --trace=PATH --telemetry=PATH
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/tracing.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

std::string ValueFor(std::uint32_t tenant, std::uint64_t id,
                     std::uint64_t bytes) {
  std::string v(bytes, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (tenant * 131 + id + i * 7) % 26);
  }
  return v;
}

struct TenantResult {
  std::uint32_t put_crc = 0;
  std::uint32_t get_crc = 0;
  Tick put_end = 0;
  Tick get_end = 0;
  bool ok = false;
};

// Open-loop windowed PUT stream: issue async puts back-to-back, reaping
// the oldest future once `depth` are outstanding; the client's admission
// window (max_inflight == depth) plus the per-SQ depth cap provide the
// backpressure that makes queue count the bottleneck.
sim::Task<void> TenantPuts(sim::Simulation* sim, client::KeyspaceHandle ks,
                           std::uint32_t tenant, std::uint64_t puts,
                           std::uint64_t value_bytes, std::uint64_t depth,
                           TenantResult* out) {
  std::deque<client::Future<Status>> window;
  for (std::uint64_t i = 0; i < puts; ++i) {
    if (window.size() >= depth) {
      Status s = co_await window.front().Await();
      if (!s.ok()) {
        std::fprintf(stderr, "tenant %u put failed: %s\n", tenant,
                     s.message().c_str());
        co_return;
      }
      window.pop_front();
    }
    const std::string key = MakeFixedKey(i);
    const std::string value = ValueFor(tenant, i, value_bytes);
    out->put_crc = crc32c::Extend(out->put_crc, key.data(), key.size());
    out->put_crc = crc32c::Extend(out->put_crc, value.data(), value.size());
    auto put = co_await ks.PutAsync(key, value);
    window.push_back(std::move(put));
  }
  while (!window.empty()) {
    Status s = co_await window.front().Await();
    if (!s.ok()) {
      std::fprintf(stderr, "tenant %u put drain failed: %s\n", tenant,
                   s.message().c_str());
      co_return;
    }
    window.pop_front();
  }
  out->put_end = sim->Now();
  out->ok = true;
}

sim::Task<void> TenantSeal(client::KeyspaceHandle ks, TenantResult* out) {
  out->ok = false;
  Status s = co_await ks.Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "seal sync failed: %s\n", s.message().c_str());
    co_return;
  }
  s = co_await ks.Compact();
  if (!s.ok()) {
    std::fprintf(stderr, "seal compact failed: %s\n", s.message().c_str());
    co_return;
  }
  s = co_await ks.WaitCompaction();
  if (!s.ok()) {
    std::fprintf(stderr, "seal wait failed: %s\n", s.message().c_str());
    co_return;
  }
  out->ok = true;
}

// Open-loop windowed GET stream over the tenant's own keys; answers are
// awaited in issue order so the fingerprint is deterministic.
sim::Task<void> TenantGets(sim::Simulation* sim, client::KeyspaceHandle ks,
                           std::uint64_t puts, std::uint64_t gets,
                           std::uint64_t depth, TenantResult* out) {
  out->ok = false;
  std::uint64_t stride = 4093;
  while (puts % stride == 0) ++stride;
  std::deque<client::Future<Result<std::string>>> window;
  for (std::uint64_t i = 0; i < gets; ++i) {
    if (window.size() >= depth) {
      auto got = co_await window.front().Await();
      window.pop_front();
      if (!got.ok()) co_return;
      out->get_crc = crc32c::Extend(out->get_crc, got->data(), got->size());
    }
    auto get = co_await ks.GetAsync(MakeFixedKey((i * stride) % puts));
    window.push_back(std::move(get));
  }
  while (!window.empty()) {
    auto got = co_await window.front().Await();
    window.pop_front();
    if (!got.ok()) co_return;
    out->get_crc = crc32c::Extend(out->get_crc, got->data(), got->size());
  }
  out->get_end = sim->Now();
  out->ok = true;
}

struct PointResult {
  double put_per_sec = 0;
  double get_per_sec = 0;
  std::uint32_t fingerprint = 0;
  double worst_put_p99 = 0;
  double worst_get_p99 = 0;
  bool ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint32_t tenants =
      static_cast<std::uint32_t>(flags.GetUint("tenants", 4));
  const std::uint64_t puts = flags.GetUint("puts_per_tenant", 4096);
  const std::uint64_t gets = flags.GetUint("gets_per_tenant", 1024);
  const std::uint64_t depth = flags.GetUint("depth", 4);
  const std::uint64_t value_bytes = flags.GetUint("value_bytes", 256);
  if (tenants == 0 || puts == 0 || gets == 0 || depth == 0) {
    std::fprintf(stderr,
                 "--tenants, --puts_per_tenant, --gets_per_tenant and "
                 "--depth must be > 0\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("multi_tenant", flags);

  std::printf(
      "Multi-tenant async host path: %u tenants x depth %s, "
      "%s PUTs + %s GETs per tenant, SQ/CQ pairs 1 -> 4\n",
      tenants, FormatCount(depth).c_str(), FormatCount(puts).c_str(),
      FormatCount(gets).c_str());
  Table table("Throughput vs SQ/CQ pair count (fixed offered load)",
              {"queues", "PUT keys/s", "GET keys/s", "put p99 (worst)",
               "get p99 (worst)", "fingerprint"});

  const std::uint32_t queue_counts[] = {1, 2, 4};
  std::vector<PointResult> points;
  bool all_ok = true;

  for (std::uint32_t queues : queue_counts) {
    TestbedConfig config = TestbedConfig::Scaled();
    config.queues.num_queues = queues;
    config.queues.sq_depth_cap = static_cast<std::uint32_t>(depth);

    CsdTestbed bed(config);
    std::vector<std::unique_ptr<client::Client>> clients;
    std::vector<client::KeyspaceHandle> keyspaces(tenants);
    std::vector<TenantResult> results(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      client::ClientConfig cc;
      cc.queue_id = t % queues;
      cc.max_inflight = static_cast<std::uint32_t>(depth);
      cc.stats_prefix = "client.t" + std::to_string(t) + ".";
      clients.push_back(std::make_unique<client::Client>(
          &bed.queue(), &bed.host_cpu(), hostenv::CostModel::Host(), cc));
    }

    // Setup: one keyspace per tenant (untimed).
    for (std::uint32_t t = 0; t < tenants; ++t) {
      bed.sim().Spawn([](client::Client* db, std::uint32_t tenant,
                         client::KeyspaceHandle* out) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("tenant" +
                                              std::to_string(tenant));
        if (ks.ok()) *out = *ks;
      }(clients[t].get(), t, &keyspaces[t]));
    }
    bed.sim().Run();

    PointResult point;
    bool point_ok = true;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      if (!keyspaces[t].valid()) point_ok = false;
    }

    // Phase 1 (timed): concurrent open-loop PUT streams.
    if (point_ok) {
      const Tick t0 = bed.sim().Now();
      for (std::uint32_t t = 0; t < tenants; ++t) {
        bed.sim().Spawn(TenantPuts(&bed.sim(), keyspaces[t], t, puts,
                                   value_bytes, depth, &results[t]));
      }
      bed.sim().Run();
      Tick put_end = t0;
      for (const TenantResult& r : results) {
        if (!r.ok) point_ok = false;
        if (r.put_end > put_end) put_end = r.put_end;
      }
      if (point_ok && put_end > t0) {
        point.put_per_sec = static_cast<double>(tenants) *
                            static_cast<double>(puts) * 1e9 /
                            static_cast<double>(put_end - t0);
      }
    }

    // Seal: sync + compact every tenant (untimed).
    if (point_ok) {
      for (std::uint32_t t = 0; t < tenants; ++t) {
        bed.sim().Spawn(TenantSeal(keyspaces[t], &results[t]));
      }
      bed.sim().Run();
      for (const TenantResult& r : results) {
        if (!r.ok) point_ok = false;
      }
    }

    // Phase 2 (timed): concurrent open-loop GET streams.
    if (point_ok) {
      const Tick t0 = bed.sim().Now();
      for (std::uint32_t t = 0; t < tenants; ++t) {
        bed.sim().Spawn(
            TenantGets(&bed.sim(), keyspaces[t], puts, gets, depth,
                       &results[t]));
      }
      bed.sim().Run();
      Tick get_end = t0;
      for (const TenantResult& r : results) {
        if (!r.ok) point_ok = false;
        if (r.get_end > get_end) get_end = r.get_end;
      }
      if (point_ok && get_end > t0) {
        point.get_per_sec = static_cast<double>(tenants) *
                            static_cast<double>(gets) * 1e9 /
                            static_cast<double>(get_end - t0);
      }
    }

    // Fingerprint: tenant-ordered combination of issued PUT bytes and
    // returned GET bytes — identical at every sweep point.
    std::uint32_t crc = 0;
    for (const TenantResult& r : results) {
      crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&r.put_crc),
                           sizeof(r.put_crc));
      crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&r.get_crc),
                           sizeof(r.get_crc));
    }
    point.fingerprint = crc;
    point.ok = point_ok;
    if (!point_ok) {
      std::fprintf(stderr, "point queues=%u: driver failed\n", queues);
      all_ok = false;
    }

    // Per-tenant latency distributions (separable by stats prefix).
    const std::string qtag = "q" + std::to_string(queues);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const std::string prefix = "client.t" + std::to_string(t) + ".";
      const auto put_summary =
          bed.sim().stats().histogram(prefix + "cmd.put_ns").Summary();
      const auto get_summary =
          bed.sim().stats().histogram(prefix + "cmd.get_ns").Summary();
      if (put_summary.p99 > point.worst_put_p99) {
        point.worst_put_p99 = put_summary.p99;
      }
      if (get_summary.p99 > point.worst_get_p99) {
        point.worst_get_p99 = get_summary.p99;
      }
      const std::string mt = "csd.mt." + qtag + ".t" + std::to_string(t);
      report.AddMetric(mt + ".put_p50_ns", put_summary.p50);
      report.AddMetric(mt + ".put_p99_ns", put_summary.p99);
      report.AddMetric(mt + ".put_p999_ns", put_summary.p999);
      report.AddMetric(mt + ".get_p50_ns", get_summary.p50);
      report.AddMetric(mt + ".get_p99_ns", get_summary.p99);
      report.AddMetric(mt + ".get_p999_ns", get_summary.p999);
    }
    report.AddMetric("csd.mt." + qtag + ".put_keys_per_sec",
                     point.put_per_sec);
    report.AddMetric("csd.mt." + qtag + ".get_keys_per_sec",
                     point.get_per_sec);
    report.AddMetric("csd.mt." + qtag + ".fingerprint",
                     static_cast<std::uint64_t>(point.fingerprint));
    if (queues == queue_counts[std::size(queue_counts) - 1]) {
      // Reference point for the p99 gate: every tenant's histograms.
      report.AddStats(bed.sim().stats(), "client.t");
    }

    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x", point.fingerprint);
    table.AddRow(
        {std::to_string(queues),
         FormatCount(static_cast<std::uint64_t>(point.put_per_sec)),
         FormatCount(static_cast<std::uint64_t>(point.get_per_sec)),
         FormatSeconds(static_cast<Tick>(point.worst_put_p99)),
         FormatSeconds(static_cast<Tick>(point.worst_get_p99)), fp});
    points.push_back(point);
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();

  // Monotone non-decreasing with 2% slack (saturated points may jitter),
  // and the widest configuration must beat the single queue outright.
  bool identical = true;
  bool put_monotone = true;
  bool get_monotone = true;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].fingerprint != points[0].fingerprint) identical = false;
    if (points[i].put_per_sec < points[i - 1].put_per_sec * 0.98) {
      put_monotone = false;
    }
    if (points[i].get_per_sec < points[i - 1].get_per_sec * 0.98) {
      get_monotone = false;
    }
  }
  // Scaling is required unless the single-queue point already runs at
  // the sweep's ceiling (the offered load saturates the device's command
  // dispatch before the queue count binds — e.g. few tenants at a deep
  // per-queue window).
  double put_peak = 0, get_peak = 0;
  for (const PointResult& p : points) {
    if (p.put_per_sec > put_peak) put_peak = p.put_per_sec;
    if (p.get_per_sec > get_peak) get_peak = p.get_per_sec;
  }
  const bool put_saturated = points.front().put_per_sec >= 0.95 * put_peak;
  const bool get_saturated = points.front().get_per_sec >= 0.95 * get_peak;
  const bool put_scales =
      points.back().put_per_sec > points.front().put_per_sec || put_saturated;
  const bool get_scales =
      points.back().get_per_sec > points.front().get_per_sec || get_saturated;

  std::printf("\naggregate PUT throughput monotone in queue count: %s\n",
              put_monotone ? "yes" : "NO (regression!)");
  std::printf("aggregate GET throughput monotone in queue count: %s\n",
              get_monotone ? "yes" : "NO (regression!)");
  std::printf("4 queues beat 1 queue (PUT %.2fx%s, GET %.2fx%s): %s\n",
              points.front().put_per_sec > 0
                  ? points.back().put_per_sec / points.front().put_per_sec
                  : 0.0,
              put_saturated ? " [saturated at 1 queue]" : "",
              points.front().get_per_sec > 0
                  ? points.back().get_per_sec / points.front().get_per_sec
                  : 0.0,
              get_saturated ? " [saturated at 1 queue]" : "",
              put_scales && get_scales ? "yes" : "NO (regression!)");
  std::printf("contents identical across sweep points: %s\n",
              identical ? "yes" : "NO (determinism bug!)");
  return (all_ok && identical && put_monotone && get_monotone && put_scales &&
          get_scales)
             ? 0
             : 1;
}
