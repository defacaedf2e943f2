// Reusable experiment drivers behind the figure benches: multi-threaded
// insertion and query phases against both systems, with the timing
// separations the paper reports (insert time vs compaction wait vs query
// time) and the I/O statistics behind Fig. 7b / 10b; and the plumbing
// every bench driver shares (timed phases, keyspace loaders, result
// fingerprints).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "harness/testbed.h"
#include "lsm/db.h"

namespace kvcsd::harness {

// --- bench driver kit ---

// Runs `task` and raises *last_done to the tick it finished at.
sim::Task<void> StampEnd(sim::Simulation* sim, sim::Task<void> task,
                         Tick* last_done);

// Spawns make_task(0), ..., make_task(n - 1) in that order and runs the
// simulation until it drains, so no background work of this phase leaks
// into the next. Returns the time from the spawn until the last task
// finished.
template <typename MakeTask>
Tick RunPhase(sim::Simulation& sim, std::size_t n, MakeTask make_task) {
  const Tick start = sim.Now();
  Tick last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Task<void> task = make_task(i);
    sim.Spawn(StampEnd(&sim, std::move(task), &last_done));
  }
  sim.Run();
  return last_done - start;
}

// `status` with its message prefixed by `step` ("compact: ..."); Ok
// stays Ok.
Status AtStep(const std::string& step, const Status& status);

// Creates keyspace `name`, bulk-loads MakeFixedKey(id) -> value_for(id)
// for every id of `ids` in that order and drains the writer. A failed
// step's status names the step ("bulk load: ...").
sim::Task<Result<client::KeyspaceHandle>> BulkLoadKeyspace(
    client::Client& db, const std::string& name,
    const std::vector<std::uint64_t>& ids,
    const std::function<std::string(std::uint64_t)>& value_for);

// BulkLoadKeyspace, then a compaction (fused with `indexes` when any are
// given) and the wait for it.
sim::Task<Result<client::KeyspaceHandle>> LoadKeyspace(
    client::Client& db, const std::string& name,
    const std::vector<std::uint64_t>& ids,
    const std::function<std::string(std::uint64_t)>& value_for,
    const std::vector<nvme::SecondaryIndexSpec>& indexes);

// 0..n-1 in order, and in a fixed shuffled order: (i * stride) % n for
// the first stride from 7919 up that does not divide n.
std::vector<std::uint64_t> SequentialIds(std::uint64_t n);
std::vector<std::uint64_t> ShuffledIds(std::uint64_t n);

// Result fingerprints: `crc` extended with every row's key then value
// bytes in row order, or with the object bytes of each scalar in
// argument order.
std::uint32_t CrcRows(std::uint32_t crc, const client::Rows& rows);
template <typename... Scalars>
std::uint32_t CrcScalars(std::uint32_t crc, const Scalars&... scalars) {
  ((crc = crc32c::Extend(crc, reinterpret_cast<const char*>(&scalars),
                         sizeof(scalars))),
   ...);
  return crc;
}

struct InsertSpec {
  std::uint64_t total_keys = 1 << 20;
  std::uint32_t value_bytes = 32; // paper micro benches: 16 B keys, 32 B values
  std::uint32_t threads = 1;
  bool shared_keyspace = true;    // one keyspace/DB vs one per thread
  bool use_bulk_put = true;       // KV-CSD bulk PUT vs regular PUT
  std::uint64_t seed = 1;
  // RunCsdInsert hands it the run's stats registry once the simulation
  // has drained, e.g. to copy series into a bench report.
  std::function<void(const sim::Stats&)> on_stats;
};

struct CsdInsertOutcome {
  Tick insert_done = 0;       // all PUTs acknowledged + compaction invoked
  Tick compaction_done = 0;   // device finished the offloaded compaction
  std::uint64_t zns_bytes_written = 0;
  std::uint64_t zns_bytes_read = 0;
  std::uint64_t pcie_h2d_bytes = 0;
  std::uint64_t pcie_d2h_bytes = 0;
  std::uint64_t failed = 0;   // non-Ok statuses (puts, drain, compaction)
};

// Runs the paper's PUT experiment against a fresh KV-CSD: `threads`
// processes insert random keys (bulk-put frames by default), then invoke
// compaction and exit; the device compacts asynchronously. `host_cores`
// models the CPU-pinning of Fig. 7a.
CsdInsertOutcome RunCsdInsert(const TestbedConfig& config,
                              std::uint32_t host_cores,
                              const InsertSpec& spec);

struct LsmInsertOutcome {
  Tick total_done = 0;  // inserts + any compaction the user must wait for
  std::uint64_t device_bytes_read = 0;
  std::uint64_t device_bytes_written = 0;
  std::uint64_t stalls = 0;
  Tick stall_time = 0;
  std::uint64_t compactions = 0;
  std::uint64_t failed = 0;  // non-Ok statuses (puts, flush, compact, close)
};

// Same workload against RocksLite in the given compaction mode. In kAuto
// the run waits for background compaction to finish (the paper includes
// this wait); kDeferred issues one CompactRange at the end; kNone skips
// compaction entirely.
LsmInsertOutcome RunLsmInsert(const TestbedConfig& config,
                              std::uint32_t host_cores,
                              const InsertSpec& spec,
                              lsm::CompactionMode mode);

// Adds `failed` to *total and names the run on stderr when it is
// non-zero. Bench mains exit 1 when the total is non-zero.
void CountFailures(const std::string& run, std::uint64_t failed,
                   std::uint64_t* total);

// Names `what` and the status on stderr when `s` is not Ok. Returns
// s.ok(), so a caller can stop at its first failed step.
bool CheckOk(const Status& s, const std::string& what);

// --- GET phase (Fig. 10): random point lookups over a pre-built dataset ---

struct GetSpec {
  std::uint64_t total_gets = 32000;
  std::uint64_t keys_per_keyspace = 1 << 20;  // key id range per keyspace
  std::uint32_t threads = 32;                 // one per keyspace
  std::uint64_t seed = 99;
};

struct QueryOutcome {
  Tick query_time = 0;
  std::uint64_t device_bytes_read = 0;  // ZNS or host SSD
  std::uint64_t pcie_d2h_bytes = 0;     // KV-CSD only
  // GETs that answered NotFound, and GETs that failed any other way. A
  // caller whose loader wrote every id in [0, keys_per_keyspace) counts
  // both as failures; one that did not treats NotFound as an answer.
  std::uint64_t not_found = 0;
  std::uint64_t failed = 0;
};

// Both functions assume the dataset was already inserted+compacted on the
// given testbed (so the caller can reuse one build across GET counts).
QueryOutcome RunCsdGets(CsdTestbed& bed,
                        std::vector<client::KeyspaceHandle>& keyspaces,
                        const GetSpec& spec);
QueryOutcome RunLsmGets(LsmTestbed& bed, std::vector<lsm::Db*>& dbs,
                        const GetSpec& spec, bool drop_page_cache);

}  // namespace kvcsd::harness
