// Recovery benchmark — simulated Device::Recover() latency vs keyspace
// count after a power cut.
//
// For each keyspace count the bench loads K keyspaces (each with --keys
// acknowledged KVs), cuts power via the fault injector, power-cycles the
// testbed (a fresh device over the surviving flash bytes) and times
// Recover(). Two rows per K: WRITABLE keyspaces, whose KLOG chains must
// be replayed end to end to rebuild key counts and bounds, and COMPACTED
// keyspaces, which only re-read index footers. The gap between the rows
// is the price of crashing with unsorted logs, which is why recovery
// time scales with the volume of un-compacted data rather than with the
// keyspace count itself.
//
// Flags: --keys=N per keyspace (default 2000)
//        --json=PATH (machine-readable report), plus the observability
//        flags of harness/tracing.h (--trace, --flight_dump, ...)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "kvcsd/device.h"
#include "sim/fault.h"
#include "sim/simulation.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

std::string ValueFor(std::uint64_t id) {
  std::string v(64, '\0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (id + i * 11) % 26);
  }
  return v;
}

device::DeviceConfig BenchConfig(sim::FaultInjector* faults) {
  device::DeviceConfig d;
  d.zns.zone_size = KiB(256);
  d.zns.num_zones = 512;
  d.zns.nand.channels = 8;
  d.zns.faults = faults;
  d.dram_bytes = MiB(4);
  d.write_buffer_bytes = KiB(16);
  return d;
}

struct RunResult {
  bool load_ok = false;
  bool recover_ok = false;
  Tick recovery_ticks = 0;
  std::uint64_t recovered_kvs = 0;
};

sim::Task<void> Load(client::Client* db, std::uint32_t keyspaces,
                     std::uint64_t keys, bool compacted, RunResult* out) {
  for (std::uint32_t i = 0; i < keyspaces; ++i) {
    auto created = co_await db->CreateKeyspace("ks" + std::to_string(i));
    if (!created.ok()) co_return;
    auto ks = std::move(*created);
    for (std::uint64_t k = 0; k < keys; ++k) {
      if (!(co_await ks.Put(MakeFixedKey(k), ValueFor(k))).ok()) co_return;
    }
    if (!(co_await ks.Sync()).ok()) co_return;
    if (compacted) {
      if (!(co_await ks.Compact()).ok()) co_return;
      if (!(co_await ks.WaitCompaction()).ok()) co_return;
    }
  }
  out->load_ok = true;
}

sim::Task<void> Recover(CsdTestbed* bed, std::uint32_t keyspaces,
                        RunResult* out) {
  const Tick start = bed->sim().Now();
  if (!(co_await bed->dev().Recover()).ok()) co_return;
  out->recovery_ticks = bed->sim().Now() - start;
  for (std::uint32_t i = 0; i < keyspaces; ++i) {
    auto opened =
        co_await bed->client().OpenKeyspace("ks" + std::to_string(i));
    if (!opened.ok()) co_return;
    auto stat = co_await opened->GetStat();
    if (!stat.ok()) co_return;
    out->recovered_kvs += stat->num_kvs;
  }
  out->recover_ok = true;
}

RunResult RunOne(std::uint32_t keyspaces, std::uint64_t keys,
                 bool compacted) {
  sim::FaultInjector faults(keyspaces * 31 + (compacted ? 1 : 0));
  TestbedConfig config;
  config.host_cores = 8;
  config.device = BenchConfig(&faults);
  // One testbed for the load and the recovery: its observability dumps
  // cover both, and the power cut trips the event ring's crash dump.
  CsdTestbed bed(config);

  RunResult result;
  bed.sim().Spawn(Load(&bed.client(), keyspaces, keys, compacted, &result));
  bed.sim().Run();
  if (!result.load_ok) return result;

  faults.Crash();  // power cut; every acked byte is behind CommitTail

  bed.PowerCycle();
  bed.sim().Spawn(Recover(&bed, keyspaces, &result));
  bed.sim().Run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 2000);
  if (keys == 0) {
    std::fprintf(stderr, "--keys must be > 0\n");
    return 2;
  }
  ApplyObservabilityFlags(flags);
  JsonReporter report("fault_recovery", flags);

  std::printf(
      "Recovery after power cut: Device::Recover() vs keyspace count "
      "(%s keys/keyspace)\n",
      FormatCount(keys).c_str());
  Table table("recovery latency (simulated)",
              {"keyspaces", "state", "recovered kvs", "recovery",
               "per keyspace"});

  bool all_ok = true;
  const std::uint32_t counts[] = {1, 2, 4, 8, 16};
  for (std::uint32_t k : counts) {
    for (bool compacted : {false, true}) {
      RunResult r = RunOne(k, keys, compacted);
      if (!r.load_ok || !r.recover_ok ||
          r.recovered_kvs != static_cast<std::uint64_t>(k) * keys) {
        all_ok = false;
      }
      const std::string point =
          std::string(compacted ? "compacted" : "writable") + ".ks" +
          std::to_string(k);
      report.AddMetric("recover." + point + ".kvs_per_sec",
                       static_cast<double>(r.recovered_kvs) * 1e9 /
                           static_cast<double>(r.recovery_ticks));
      report.AddMetric("recover." + point + ".ticks", r.recovery_ticks);
      table.AddRow({std::to_string(k), compacted ? "COMPACTED" : "WRITABLE",
                    FormatCount(r.recovered_kvs),
                    FormatSeconds(r.recovery_ticks),
                    FormatSeconds(r.recovery_ticks / k)});
    }
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();

  std::printf("\nall runs loaded, recovered, and kept every acked kv: %s\n",
              all_ok ? "yes" : "NO (recovery bug!)");
  return all_ok ? 0 : 1;
}
