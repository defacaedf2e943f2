#include "nvme/command.h"

namespace kvcsd::nvme {

namespace {
constexpr std::uint64_t kSqeSize = 64;  // NVMe submission queue entry
constexpr std::uint64_t kCqeSize = 16;  // NVMe completion queue entry
}  // namespace

std::uint64_t CommandWireSize(const Command& cmd) {
  std::uint64_t size = kSqeSize + cmd.name.size() + cmd.key.size() +
                       cmd.key_end.size() + cmd.value.size() +
                       cmd.sidx.name.size();
  for (const auto& spec : cmd.sidx_list) {
    size += spec.name.size() + 9;  // offset/length/type descriptor
  }
  // Pushdown descriptors ride in the submission payload.
  if (cmd.pred.op != PredicateOp::kNone) {
    size += 10 + cmd.pred.operand.size();  // op/offset/length/type + bound
  }
  if (cmd.proj.enabled) size += 9;         // flag/offset/length
  if (cmd.agg.func != AggregateFunc::kNone) {
    size += 10;                            // func/offset/length/type
  }
  if (cmd.opcode == Opcode::kGetLogPage) size += 4;  // log page id
  return size;
}

std::uint64_t CompletionWireSize(const Completion& cpl) {
  std::uint64_t size = kCqeSize + cpl.value.size();
  for (const auto& [key, value] : cpl.results) {
    size += key.size() + value.size();
  }
  // Aggregate scalars: rows + min/max/sum. This fixed cost is the whole
  // point of kKvAggregate — the result never grows with the row count.
  if (cpl.has_agg) size += 32;
  // A failed job's status travels with a stat; a clean one fits the CQE.
  if (!cpl.job_status.ok()) size += cpl.job_status.message().size();
  return size;
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kKvStore:
      return "kv_store";
    case Opcode::kKvRetrieve:
      return "kv_retrieve";
    case Opcode::kKvDelete:
      return "kv_delete";
    case Opcode::kKeyspaceCreate:
      return "keyspace_create";
    case Opcode::kKeyspaceOpen:
      return "keyspace_open";
    case Opcode::kKeyspaceDrop:
      return "keyspace_drop";
    case Opcode::kBulkStore:
      return "bulk_store";
    case Opcode::kCompact:
      return "compact";
    case Opcode::kCompactWait:
      return "compact_wait";
    case Opcode::kSecondaryBuild:
      return "secondary_build";
    case Opcode::kQueryPrimaryRange:
      return "query_primary_range";
    case Opcode::kQuerySecondaryRange:
      return "query_secondary_range";
    case Opcode::kKeyspaceStat:
      return "keyspace_stat";
    case Opcode::kSync:
      return "sync";
    case Opcode::kCompactWithIndexes:
      return "compact_with_indexes";
    case Opcode::kKvSelect:
      return "kv_select";
    case Opcode::kKvAggregate:
      return "kv_aggregate";
    case Opcode::kGetLogPage:
      return "get_log_page";
  }
  return "unknown";
}

sim::Activity ActivityForOpcode(Opcode op) {
  switch (op) {
    case Opcode::kKvRetrieve:
    case Opcode::kQueryPrimaryRange:
    case Opcode::kQuerySecondaryRange:
    case Opcode::kKeyspaceStat:
      return sim::Activity::kHostRead;
    case Opcode::kKvStore:
    case Opcode::kKvDelete:
    case Opcode::kBulkStore:
    case Opcode::kSync:
      return sim::Activity::kHostWrite;
    case Opcode::kCompact:
    case Opcode::kCompactWait:
    case Opcode::kSecondaryBuild:
    case Opcode::kCompactWithIndexes:
      return sim::Activity::kCompact;
    case Opcode::kKvSelect:
    case Opcode::kKvAggregate:
      return sim::Activity::kPushdown;
    default:
      return sim::Activity::kOther;
  }
}

const char* OpcodeLatencyClass(Opcode op) {
  switch (op) {
    case Opcode::kKvStore:
    case Opcode::kBulkStore:
      return "put";
    case Opcode::kKvDelete:
      return "delete";
    case Opcode::kKvRetrieve:
      return "get";
    case Opcode::kQueryPrimaryRange:
      return "range";
    case Opcode::kQuerySecondaryRange:
      return "secondary_range";
    case Opcode::kKvSelect:
      return "select";
    case Opcode::kKvAggregate:
      return "aggregate";
    default:
      return nullptr;
  }
}

}  // namespace kvcsd::nvme
