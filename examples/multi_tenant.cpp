// Multi-tenant keyspaces: several independent applications share one
// KV-CSD device without coordinating key names (paper §IV: keyspaces
// "prevent unrelated applications from having to frequently synchronize
// with each other"), each with its own lifecycle — including deletion,
// whose zone reclamation the device handles via ZNS resets.
//
// Exits 1 if any step fails.
//
// Build & run:  ./build/examples/multi_tenant
#include <cstdio>

#include "client/client.h"
#include "common/keys.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/workloads.h"
#include "sim/sync.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

// Each tenant writes the SAME key ids into its own keyspace — no clashes.
// Signals `wg` only when every step succeeded.
sim::Task<void> Tenant(CsdTestbed* bed, int id, sim::WaitGroup* wg) {
  client::Client& db = bed->client();
  const std::string name = "tenant-" + std::to_string(id);
  auto ks = co_await db.CreateKeyspace(name);
  if (!CheckOk(ks.status(), name + " create")) co_return;

  auto writer = ks->NewBulkWriter();
  for (std::uint64_t k = 0; k < 20000; ++k) {
    if (!CheckOk(co_await writer.Add(MakeFixedKey(k),
                                     name + ":payload-" + std::to_string(k)),
                 name + " bulk put")) {
      co_return;
    }
  }
  if (!CheckOk(co_await writer.Drain(), name + " bulk put drain") ||
      !CheckOk(co_await ks->Compact(), name + " compact") ||
      !CheckOk(co_await ks->WaitCompaction(), name + " wait compaction")) {
    co_return;
  }

  auto value = co_await ks->Get(MakeFixedKey(7));
  if (!CheckOk(value.status(), name + " get")) co_return;
  std::printf("[t=%s] %s reads key 7 -> \"%s\"\n",
              FormatSeconds(bed->sim().Now()).c_str(), name.c_str(),
              value->c_str());
  wg->Done();
}

}  // namespace

int main() {
  TestbedConfig config = TestbedConfig::Scaled();
  CsdTestbed bed(config);

  sim::WaitGroup wg(&bed.sim());
  constexpr int kTenants = 4;
  wg.Add(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    bed.sim().Spawn(Tenant(&bed, t, &wg));
  }

  // A supervisor retires tenant 2 once everyone is done and shows the
  // device reclaiming its zones.
  bool finished = false;
  bed.sim().Spawn([](CsdTestbed* b, sim::WaitGroup* done,
                     bool* ok) -> sim::Task<void> {
    co_await done->Wait();
    const std::size_t free_before = b->dev().zones().free_zones();
    if (!CheckOk(co_await b->client().DropKeyspace("tenant-2"),
                 "drop tenant-2")) {
      co_return;
    }
    std::printf("[t=%s] dropped tenant-2: free zones %zu -> %zu\n",
                FormatSeconds(b->sim().Now()).c_str(), free_before,
                b->dev().zones().free_zones());
    auto gone = co_await b->client().OpenKeyspace("tenant-2");
    std::printf("open(tenant-2) after drop: %s\n",
                gone.status().ToString().c_str());
    auto alive = co_await b->client().OpenKeyspace("tenant-1");
    if (!CheckOk(alive.status(), "open tenant-1")) co_return;
    std::printf("open(tenant-1) still: OK\n");
    *ok = gone.status().code() == StatusCode::kNotFound;
    if (!*ok) std::fprintf(stderr, "FAIL: tenant-2 still opens after drop\n");
  }(&bed, &wg, &finished));

  bed.sim().Run();
  return finished ? 0 : 1;
}
