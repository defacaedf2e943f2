// NVMe-flavoured command set for KV-CSD.
//
// The paper (§III "NVMe") says KV-CSD speaks the standard NVMe key-value
// command set between the client library and the device, extended with
// vendor commands for what the standard lacks: keyspace management,
// compaction, and secondary-index operations. We encode commands as typed
// structs carried over the queue pair; payloads (keys/values/results) ride
// along as byte strings whose transfer cost is charged to the PCIe link.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/activity.h"

namespace kvcsd::nvme {

enum class Opcode : std::uint8_t {
  // NVMe KV command set.
  kKvStore = 0x01,
  kKvRetrieve = 0x02,
  kKvDelete = 0x10,
  // KV-CSD vendor extensions.
  kKeyspaceCreate = 0xc0,
  kKeyspaceOpen = 0xc1,
  kKeyspaceDrop = 0xc2,
  kBulkStore = 0xc3,
  kCompact = 0xc4,          // trigger deferred compaction (async)
  kCompactWait = 0xc5,      // block until compaction completes
  kSecondaryBuild = 0xc6,   // build a secondary index (blocks until done)
  kQueryPrimaryRange = 0xc7,
  kQuerySecondaryRange = 0xc8,
  kKeyspaceStat = 0xc9,
  // Persists the keyspace's DRAM write buffer to its log zones (the
  // paper's explicit "fsync", §VI).
  kSync = 0xca,
  // Future-work extension the paper sketches in §V: compaction and
  // secondary-index construction fused into one pass, trading SoC DRAM
  // for not re-reading the keyspace during index builds.
  kCompactWithIndexes = 0xcb,
  // Query pushdown (paper Fig. 12 / AirMettle's KV_SEND_SELECT family):
  // the device filters on a value predicate, trims each match to a
  // projection byte range, and only the survivors cross PCIe.
  kKvSelect = 0xcc,
  // Pushdown aggregation: count/min/max/sum over a fixed-offset value
  // attribute computed device-side; the completion carries scalars only.
  kKvAggregate = 0xcd,
  // Admin introspection (NVMe Get Log Page): the device returns a
  // versioned, flat-encoded log page (nvme/log_page.h) in the completion
  // payload. Not keyspace-scoped; `log_page` selects the page.
  kGetLogPage = 0xce,
};

// Log page identifiers for kGetLogPage.
enum class LogPageId : std::uint32_t {
  kHealth = 1,  // gauges: zones per role, delta bytes, inflight, utilization
  kStats = 2,   // device.* counters + latency-histogram digests
};

// Secondary index key type (paper §V: applications give a byte range of
// the value and its type).
enum class SecondaryKeyType : std::uint8_t {
  kU32 = 0,
  kU64 = 1,
  kI32 = 2,
  kF32 = 3,
  kF64 = 4,
  kBytes = 5,  // raw memcmp-ordered bytes
};

struct SecondaryIndexSpec {
  std::string name;
  std::uint32_t value_offset = 0;
  std::uint32_t value_length = 0;
  SecondaryKeyType type = SecondaryKeyType::kBytes;
};

// --- query pushdown descriptors (kKvSelect / kKvAggregate) ---

enum class PredicateOp : std::uint8_t {
  kNone = 0,  // no predicate: every scanned record matches
  kEq = 1,
  kNe = 2,
  kLt = 3,
  kLe = 4,
  kGt = 5,
  kGe = 6,
};

// Device-side filter over raw value bytes, independent of any secondary
// index: the device extracts value[value_offset, value_offset+value_length),
// order-encodes it per `type` (nvme/skey.h), and memcmp-compares against
// `operand` (which the client ships ALREADY order-encoded, exactly like
// secondary-range bounds). A value too short to hold the attribute never
// matches — short records are counted, not errors.
struct ValuePredicate {
  PredicateOp op = PredicateOp::kNone;
  std::uint32_t value_offset = 0;
  std::uint32_t value_length = 0;
  SecondaryKeyType type = SecondaryKeyType::kBytes;
  std::string operand;  // order-encoded comparison bound
};

// Per-record byte-range projection: each matching value is trimmed to
// [offset, offset+length) before it crosses PCIe. A range reaching past
// the value end is clamped to the bytes that exist (possibly empty).
struct Projection {
  bool enabled = false;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;  // 0 with enabled=true projects zero bytes
};

enum class AggregateFunc : std::uint8_t {
  kNone = 0,
  kCount = 1,
  kMin = 2,
  kMax = 3,
  kSum = 4,
};

// Aggregate over a fixed-offset typed attribute of every matching value.
// kCount ignores the attribute fields; min/max/sum need a numeric type
// (kBytes is rejected) and skip values too short to hold the attribute.
struct AggregateSpec {
  AggregateFunc func = AggregateFunc::kNone;
  std::uint32_t value_offset = 0;
  std::uint32_t value_length = 0;
  SecondaryKeyType type = SecondaryKeyType::kF32;
};

// Scalars posted back for kKvAggregate. `rows` counts predicate matches;
// min/max/sum cover only the matches that held the attribute (`valid`
// false means zero such rows, leaving min/max/sum meaningless). The sum
// accumulates in scan order — primary-key order unless the command names
// a secondary index (then (skey, pkey) order); an index the device's scan
// planner picks still folds in primary-key order — so a host model
// iterating the same order reproduces it bit-identically.
struct AggregateResult {
  std::uint64_t rows = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  bool valid = false;
};

// One command submission. Exactly the fields the opcode needs are set.
struct Command {
  Opcode opcode = Opcode::kKvStore;
  // Causal command id (Simulation::AllocateCmdId), stamped by the client
  // and threaded through dispatch and any device work the command spawns;
  // flow events and per-stage latency attribution key on it. 0 = untracked
  // (commands built directly by tests).
  std::uint64_t cmd_id = 0;
  // Host tick at which the client started preparing this command; the
  // submit-stage histogram measures from here to SQ enqueue. 0 = unset
  // (the queue falls back to its own entry tick).
  Tick submit_tick = 0;
  std::uint64_t keyspace_id = 0;   // resolved keyspace handle
  std::string name;                // keyspace name (create/open/drop)
  std::string key;                 // single-key ops / range start
  std::string key_end;             // range end (inclusive)
  std::string value;               // store payload / bulk-put frame
  std::uint32_t limit = 0;         // max results for range queries (0 = all)
  SecondaryIndexSpec sidx;         // secondary build / query target
  // kCompactWithIndexes: every index to build during the fused pass.
  std::vector<SecondaryIndexSpec> sidx_list;
  // kKvSelect / kKvAggregate. When sidx.name is set, the scan is driven
  // by that secondary index over [key, key_end] encoded bounds; otherwise
  // it is a primary range scan. `pred` filters beyond the scan bounds,
  // `proj` trims select results, `agg` picks the aggregate.
  ValuePredicate pred;
  Projection proj;
  AggregateSpec agg;
  // kGetLogPage: which page to return.
  LogPageId log_page = LogPageId::kHealth;
};

// Completion posted back to the host.
struct Completion {
  Status status;
  std::uint64_t keyspace_id = 0;              // create/open result
  std::string value;                          // retrieve result
  std::vector<std::pair<std::string, std::string>> results;  // range query
  std::uint64_t count = 0;                    // stat result / rows matched
  // kKvAggregate scalars; has_agg gates their PCIe wire accounting.
  bool has_agg = false;
  AggregateResult agg;
};

// Payload size used for PCIe transfer accounting on the submission side.
std::uint64_t CommandWireSize(const Command& cmd);
// And on the completion side.
std::uint64_t CompletionWireSize(const Completion& cpl);

// Stable lowercase mnemonic for metric names and trace-event labels
// ("kv_store", "query_primary_range", ...); "unknown" for out-of-set values.
const char* OpcodeName(Opcode op);

// Latency-class bucket for the per-command histograms the paper's plots
// need: "put" (store/bulk store), "get" (retrieve), "range" (primary
// range), "secondary_range" (secondary range), "select" (pushdown select),
// "aggregate" (pushdown aggregate); nullptr for everything else
// (management commands are counted but not latency-classed).
const char* OpcodeLatencyClass(Opcode op);

// Activity class for per-resource utilization attribution: host reads,
// host writes, compaction triggers, pushdown scans; management commands
// (keyspace create/open/drop, log-page pulls) land in kOther.
sim::Activity ActivityForOpcode(Opcode op);

}  // namespace kvcsd::nvme
