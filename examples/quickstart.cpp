// Quickstart: the minimal end-to-end KV-CSD workflow.
//
//   1. bring up a simulated KV-CSD device and a client
//   2. create a keyspace and insert key-value pairs (bulk PUT)
//   3. invoke deferred compaction (runs asynchronously in the device)
//   4. point-lookup and range-scan the compacted keyspace
//
// Exits 1 if any step fails.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "client/client.h"
#include "common/keys.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/workloads.h"

using namespace kvcsd;  // NOLINT
using harness::CheckOk;

// Sets *finished only when every step succeeded.
sim::Task<void> Quickstart(harness::CsdTestbed* bed, bool* finished) {
  client::Client& db = bed->client();

  // -- create & load ------------------------------------------------------
  auto keyspace = co_await db.CreateKeyspace("quickstart");
  if (!CheckOk(keyspace.status(), "create keyspace")) co_return;
  auto writer = keyspace->NewBulkWriter();
  for (std::uint64_t i = 0; i < 100000; ++i) {
    if (!CheckOk(co_await writer.Add(MakeFixedKey(i),
                                     "value-" + std::to_string(i)),
                 "bulk put")) {
      co_return;
    }
  }
  // Drain, not Flush: the load is done once every frame has landed.
  if (!CheckOk(co_await writer.Drain(), "bulk put drain")) co_return;
  std::printf("inserted 100000 pairs at t=%s\n",
              harness::FormatSeconds(bed->sim().Now()).c_str());

  // -- compact (offloaded + asynchronous) ---------------------------------
  if (!CheckOk(co_await keyspace->Compact(), "compact")) co_return;
  std::printf("compaction invoked at t=%s (device works in background)\n",
              harness::FormatSeconds(bed->sim().Now()).c_str());
  if (!CheckOk(co_await keyspace->WaitCompaction(), "wait compaction")) {
    co_return;
  }
  std::printf("compaction finished at t=%s\n",
              harness::FormatSeconds(bed->sim().Now()).c_str());

  // -- query ---------------------------------------------------------------
  auto value = co_await keyspace->Get(MakeFixedKey(4242));
  if (!CheckOk(value.status(), "get")) co_return;
  std::printf("Get(4242) -> %s\n", value->c_str());

  std::vector<std::pair<std::string, std::string>> window;
  if (!CheckOk(co_await keyspace->Scan(MakeFixedKey(100), MakeFixedKey(104),
                                       0, &window),
               "scan")) {
    co_return;
  }
  for (const auto& [key, val] : window) {
    std::printf("Scan hit: id=%llu -> %s\n",
                static_cast<unsigned long long>(FixedKeyId(key)),
                val.c_str());
  }

  auto stat = co_await keyspace->GetStat();
  if (!CheckOk(stat.status(), "stat")) co_return;
  std::printf("keyspace: %llu pairs, state %s\n",
              static_cast<unsigned long long>(stat->num_kvs),
              stat->state.c_str());
  *finished = true;
}

int main() {
  harness::TestbedConfig config = harness::TestbedConfig::Scaled();
  harness::CsdTestbed bed(config);
  bool finished = false;
  bed.sim().Spawn(Quickstart(&bed, &finished));
  bed.sim().Run();
  std::printf("simulated wall time: %s\n",
              harness::FormatSeconds(bed.sim().Now()).c_str());
  return finished ? 0 : 1;
}
