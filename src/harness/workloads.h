// Reusable experiment drivers behind the figure benches: multi-threaded
// insertion and query phases against both systems, with the timing
// separations the paper reports (insert time vs compaction wait vs query
// time) and the I/O statistics behind Fig. 7b / 10b.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "lsm/db.h"

namespace kvcsd::harness {

struct InsertSpec {
  std::uint64_t total_keys = 1 << 20;
  std::uint32_t key_bytes = 16;   // paper micro benches: 16 B keys
  std::uint32_t value_bytes = 32; // and 32 B values
  std::uint32_t threads = 1;
  bool shared_keyspace = true;    // one keyspace/DB vs one per thread
  bool use_bulk_put = true;       // KV-CSD bulk PUT vs regular PUT
  std::uint64_t seed = 1;
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
