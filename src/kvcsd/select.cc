// In-device query pushdown (DESIGN.md §13): SELECT with value predicates
// and byte-range projection, plus count/min/max/sum aggregation — the
// paper's Fig. 12 selectivity win taken to its conclusion. The host ships
// a predicate descriptor; the device scans, filters, and either trims
// each surviving record to the projected byte range or folds everything
// into four scalars, so host-visible bytes scale with selectivity (or
// stay constant), never with dataset size.
//
// Row collection deliberately reuses QueryPrimaryRange /
// QuerySecondaryRange: pushdown scans inherit the delta merge with
// tombstone suppression, the index-block cache, the two-slot prefetch
// pipeline, and the deduped/coalesced gather fan-out for free, and any
// future change to scan semantics applies to pushdown automatically.
//
// A predicate-only command (no sidx.name) is planned: when a SIDX covers
// exactly the predicate's attribute and its sketch says the implied index
// range spans fewer blocks than the primary key range, the candidates come
// from that index instead of a full primary scan, are trimmed to the
// primary range, and are re-sorted into primary-key order. The exact
// predicate still runs on every row, so the index only has to supply a
// superset of the matches and the result is byte-identical to the primary
// plan's.
//
// A command collected through a SIDX whose predicate, aggregate and
// projection read only the indexed attribute is covered: its rows carry
// the attribute bytes decoded from the SIDX entries and no value is
// gathered. The filter's SoC charge is booked one 4 KiB slice of rows at
// a time, so a long scan never holds a core for more than one slice.
#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/coding.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Encoded width of a typed attribute; 0 for kBytes (any width is legal).
std::uint32_t TypedWidth(nvme::SecondaryKeyType type) {
  switch (type) {
    case nvme::SecondaryKeyType::kU32:
    case nvme::SecondaryKeyType::kI32:
    case nvme::SecondaryKeyType::kF32:
      return 4;
    case nvme::SecondaryKeyType::kU64:
    case nvme::SecondaryKeyType::kF64:
      return 8;
    case nvme::SecondaryKeyType::kBytes:
      return 0;
  }
  return 0;
}

Status ValidatePredicate(const nvme::ValuePredicate& pred) {
  if (pred.op == nvme::PredicateOp::kNone) return Status::Ok();
  const std::uint32_t width = TypedWidth(pred.type);
  if (width != 0) {
    if (pred.value_length != width) {
      return Status::InvalidArgument("predicate attribute length mismatch");
    }
    if (pred.operand.size() != width) {
      return Status::InvalidArgument("predicate operand width mismatch");
    }
  } else if (pred.value_length == 0) {
    return Status::InvalidArgument("bytes predicate needs a length");
  }
  return Status::Ok();
}

Status ValidateAggregate(const nvme::AggregateSpec& agg) {
  if (agg.func == nvme::AggregateFunc::kNone) {
    return Status::InvalidArgument("aggregate command without a function");
  }
  if (agg.func == nvme::AggregateFunc::kCount) return Status::Ok();
  const std::uint32_t width = TypedWidth(agg.type);
  if (width == 0) {
    return Status::InvalidArgument("min/max/sum need a numeric attribute");
  }
  if (agg.value_length != width) {
    return Status::InvalidArgument("aggregate attribute length mismatch");
  }
  return Status::Ok();
}

// memcmp verdict -> predicate verdict.
bool ApplyOp(int cmp, nvme::PredicateOp op) {
  switch (op) {
    case nvme::PredicateOp::kNone:
      return true;
    case nvme::PredicateOp::kEq:
      return cmp == 0;
    case nvme::PredicateOp::kNe:
      return cmp != 0;
    case nvme::PredicateOp::kLt:
      return cmp < 0;
    case nvme::PredicateOp::kLe:
      return cmp <= 0;
    case nvme::PredicateOp::kGt:
      return cmp > 0;
    case nvme::PredicateOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Decodes a raw little-endian attribute into the accumulator domain.
// kBytes never reaches here (rejected by ValidateAggregate).
double DecodeAttribute(const Slice& raw, nvme::SecondaryKeyType type) {
  switch (type) {
    case nvme::SecondaryKeyType::kU32:
      return static_cast<double>(DecodeFixed32(raw.data()));
    case nvme::SecondaryKeyType::kU64:
      return static_cast<double>(DecodeFixed64(raw.data()));
    case nvme::SecondaryKeyType::kI32:
      return static_cast<double>(
          static_cast<std::int32_t>(DecodeFixed32(raw.data())));
    case nvme::SecondaryKeyType::kF32:
      return static_cast<double>(
          std::bit_cast<float>(DecodeFixed32(raw.data())));
    case nvme::SecondaryKeyType::kF64:
      return std::bit_cast<double>(DecodeFixed64(raw.data()));
    case nvme::SecondaryKeyType::kBytes:
      break;
  }
  return 0.0;
}

// The SIDX key range [*lo, *hi] holding every encoded attribute that a
// range predicate accepts (attributes encode to value_length bytes, so
// value_length 0xff bytes bound them from above). False for kNone/kNe,
// which no single index range covers.
bool PredicateIndexRange(const nvme::ValuePredicate& pred, std::string* lo,
                         std::string* hi) {
  switch (pred.op) {
    case nvme::PredicateOp::kEq:
      *lo = pred.operand;
      *hi = pred.operand;
      return true;
    case nvme::PredicateOp::kGt:
    case nvme::PredicateOp::kGe:
      *lo = pred.operand;
      *hi = std::string(pred.value_length, '\xff');
      return true;
    case nvme::PredicateOp::kLt:
    case nvme::PredicateOp::kLe:
      lo->clear();
      *hi = pred.operand;
      return true;
    case nvme::PredicateOp::kNone:
    case nvme::PredicateOp::kNe:
      break;
  }
  return false;
}

// The scan planner for a predicate-only pushdown. Returns the name of the
// SIDX to collect candidates through, with its key range in [*lo, *hi],
// or "" for the primary plan (index names are never empty). The cost rule
// compares sketch block counts — both in DRAM, so planning reads no flash.
std::string PlanIndexScan(const Keyspace& ks, const nvme::Command& cmd,
                          std::string* lo, std::string* hi) {
  if (!PredicateIndexRange(cmd.pred, lo, hi)) return "";
  for (const auto& [name, sidx] : ks.secondary_indexes) {
    if (sidx.spec.value_offset != cmd.pred.value_offset ||
        sidx.spec.value_length != cmd.pred.value_length ||
        sidx.spec.type != cmd.pred.type) {
      continue;
    }
    // QuerySecondaryRange rejects a live delta value too short to hold
    // the attribute; the primary plan counts it in short_values instead.
    const std::uint64_t need = nvme::SecondaryKeyEnd(sidx.spec);
    for (const auto& [pkey, entry] : ks.delta_index) {
      if (!entry.tombstone && entry.vlen < need) return "";
    }
    if (SketchBlocksInRange(sidx.sketch, *lo, *hi) >=
        SketchBlocksInRange(ks.pidx_sketch, cmd.key, cmd.key_end)) {
      return "";
    }
    return name;
  }
  return "";
}

// True when value bytes [offset, offset + length) lie inside the index
// attribute `spec` covers.
bool InsideAttribute(const nvme::SecondaryIndexSpec& spec,
                     std::uint32_t offset, std::uint32_t length) {
  return offset >= spec.value_offset &&
         std::uint64_t{offset} + length <= nvme::SecondaryKeyEnd(spec);
}

// A command collected through the SIDX `spec` is covered when every value
// byte it reads lies inside the index attribute: the predicate's range,
// the aggregate's (kCount reads none) and the select's projection. A
// select without a projection returns whole values, so it never is.
bool CoveredBy(const nvme::SecondaryIndexSpec& spec, const nvme::Command& cmd,
               bool aggregate) {
  if (cmd.pred.op != nvme::PredicateOp::kNone &&
      !InsideAttribute(spec, cmd.pred.value_offset, cmd.pred.value_length)) {
    return false;
  }
  if (aggregate) {
    return cmd.agg.func == nvme::AggregateFunc::kCount ||
           InsideAttribute(spec, cmd.agg.value_offset, cmd.agg.value_length);
  }
  return cmd.proj.enabled &&
         InsideAttribute(spec, cmd.proj.offset, cmd.proj.length);
}

using Rows = std::vector<std::pair<std::string, std::string>>;

// Charges a pass over `rows` on the SoC cores one kIndexBlockSize slice of
// rows (key plus value bytes) at a time, so a long scan frees its core for
// the commands queued behind it at every slice boundary. Each slice pays
// `per_row` per row plus the per-byte cost of its rows' `bytes(row)` as a
// difference of cumulative TransferTicks, so the slices add up exactly to
// one charge of the whole pass.
template <typename Bytes>
sim::Task<void> ChargeSliced(sim::CpuPool* cpu, const Rows& rows,
                             Bytes bytes, double bytes_per_sec, Tick per_row) {
  std::uint64_t streamed = 0;
  Tick charged = 0;
  std::uint64_t slice_bytes = 0;
  Tick slice_rows = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    streamed += bytes(rows[i]);
    slice_bytes += rows[i].first.size() + rows[i].second.size();
    ++slice_rows;
    if (slice_bytes < kIndexBlockSize && i + 1 < rows.size()) continue;
    const Tick upto = TransferTicks(streamed, bytes_per_sec);
    co_await cpu->Compute(upto - charged + slice_rows * per_row,
                          sim::Activity::kPushdown);
    charged = upto;
    slice_bytes = 0;
    slice_rows = 0;
  }
}

}  // namespace

sim::Task<Status> Device::QueryPushdown(Keyspace* ks,
                                        const nvme::Command& cmd,
                                        nvme::Completion* out) {
  const bool aggregate = cmd.opcode == nvme::Opcode::kKvAggregate;
  if (aggregate) {
    KVCSD_CO_RETURN_IF_ERROR(ValidateAggregate(cmd.agg));
    if (cmd.proj.enabled) {
      co_return Status::InvalidArgument("projection is a select feature");
    }
  } else if (cmd.agg.func != nvme::AggregateFunc::kNone) {
    co_return Status::InvalidArgument("aggregate spec on a select command");
  }
  KVCSD_CO_RETURN_IF_ERROR(ValidatePredicate(cmd.pred));

  sim::TraceSpan span(sim_, trk_query_, aggregate ? "aggregate" : "select");

  // Plan on the structures the scan will read: a re-compaction swaps the
  // sketches, so wait it out first (the scans' own wait is then a no-op).
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  const bool via_sidx = !cmd.sidx.name.empty();
  std::string plan_lo;
  std::string plan_hi;
  const std::string planned =
      via_sidx ? "" : PlanIndexScan(*ks, cmd, &plan_lo, &plan_hi);
  if (!via_sidx) {
    stats()
        .counter(planned.empty() ? "device.select.plan.primary"
                                 : "device.select.plan.sidx")
        .Increment();
  }

  // A covered command reads nothing the SIDX entries do not hold, so its
  // rows carry the attribute bytes alone and every offset it reads moves
  // back by the attribute's. The offset is copied: the index may be
  // rebuilt once the scan below has released the keyspace.
  const std::string& index = via_sidx ? cmd.sidx.name : planned;
  bool covered = false;
  std::uint32_t base = 0;
  if (auto it = ks->secondary_indexes.find(index);
      it != ks->secondary_indexes.end() &&
      CoveredBy(it->second.spec, cmd, aggregate)) {
    covered = true;
    base = it->second.spec.value_offset;
    stats().counter("device.select.plan.covered").Increment();
  }

  // The predicate can match anywhere in the scan range, so row collection
  // runs unbounded (limit = 0); cmd.limit cuts *matches* below. Every plan
  // returns (primary key, value) rows in a deterministic order:
  // primary-key order for primary and planned scans, (skey, pkey) order
  // for an explicitly named index — the order the aggregate accumulates in.
  Rows rows;
  if (via_sidx) {
    KVCSD_CO_RETURN_IF_ERROR(co_await QuerySecondaryRange(
        ks, cmd.sidx.name, cmd.key, cmd.key_end, /*limit=*/0, &rows,
        sim::Activity::kPushdown, covered));
  } else if (!planned.empty()) {
    KVCSD_CO_RETURN_IF_ERROR(co_await QuerySecondaryRange(
        ks, planned, plan_lo, plan_hi, /*limit=*/0, &rows,
        sim::Activity::kPushdown, covered));
    std::erase_if(rows, [&cmd](const auto& row) {
      return row.first < cmd.key || cmd.key_end < row.first;
    });
    co_await ChargeSliced(
        &cpu_, rows, [](const auto& row) { return row.first.size(); },
        config_.costs.merge_bytes_per_sec, 0);
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
  } else {
    KVCSD_CO_RETURN_IF_ERROR(co_await QueryPrimaryRange(
        ks, cmd.key, cmd.key_end, /*limit=*/0, &rows,
        sim::Activity::kPushdown));
  }
  if (CrashPoint("select.mid_scan")) {
    co_return Status::IoError("simulated power loss (mid select scan)");
  }

  // The filter streams every value byte it reads through the SoC cores —
  // same rate class as secondary-key extraction — plus fixed per-record
  // handling. This is the CPU the host does NOT pay.
  std::uint64_t bytes_scanned = 0;
  for (const auto& [key, value] : rows) bytes_scanned += value.size();
  co_await ChargeSliced(
      &cpu_, rows, [](const auto& row) { return row.second.size(); },
      config_.costs.extract_bytes_per_sec, config_.costs.kv_op_fixed);

  nvme::SecondaryIndexSpec pred_spec;
  pred_spec.value_offset = cmd.pred.value_offset;
  pred_spec.value_length = cmd.pred.value_length;
  pred_spec.type = cmd.pred.type;

  nvme::AggregateResult agg;
  std::uint64_t matched = 0;
  std::uint64_t short_values = 0;
  std::uint64_t bytes_returned = 0;
  Status verdict = Status::Ok();
  for (auto& [key, value] : rows) {
    if (cmd.pred.op != nvme::PredicateOp::kNone) {
      Slice attr;
      if (!wire::ExtractAttribute(Slice(value), cmd.pred.value_offset - base,
                                  cmd.pred.value_length, &attr)) {
        ++short_values;  // too short to hold the attribute: never matches
        continue;
      }
      auto encoded = nvme::EncodeSecondaryKeyBytes(attr, pred_spec);
      if (!encoded.ok()) {
        verdict = encoded.status();
        break;
      }
      if (!ApplyOp(encoded->compare(cmd.pred.operand), cmd.pred.op)) {
        continue;
      }
    }
    ++matched;
    if (aggregate) {
      if (cmd.agg.func != nvme::AggregateFunc::kCount) {
        Slice attr;
        if (!wire::ExtractAttribute(Slice(value),
                                    cmd.agg.value_offset - base,
                                    cmd.agg.value_length, &attr)) {
          ++short_values;  // counted in rows, excluded from min/max/sum
        } else {
          const double v = DecodeAttribute(attr, cmd.agg.type);
          if (!agg.valid) {
            agg.min = agg.max = v;
            agg.valid = true;
          } else {
            agg.min = std::min(agg.min, v);
            agg.max = std::max(agg.max, v);
          }
          agg.sum += v;  // scan order: bit-reproducible by the host model
        }
      }
    } else {
      Slice projected =
          cmd.proj.enabled
              ? wire::ClampProjection(Slice(value), cmd.proj.offset - base,
                                      cmd.proj.length)
              : Slice(value);
      bytes_returned += key.size() + projected.size();
      out->results.emplace_back(std::move(key), projected.ToString());
    }
    if (cmd.limit != 0 && matched >= cmd.limit) break;
  }
  KVCSD_CO_RETURN_IF_ERROR(verdict);

  if (aggregate) {
    agg.rows = matched;
    if (cmd.agg.func == nvme::AggregateFunc::kCount) agg.valid = matched > 0;
    out->agg = agg;
    out->has_agg = true;
    out->count = matched;
    bytes_returned = 32;  // the scalars — independent of matched rows
  } else {
    out->count = out->results.size();
  }

  stats().counter("device.select.rows_scanned").Add(rows.size());
  stats().counter("device.select.rows_matched").Add(matched);
  stats().counter("device.select.bytes_scanned").Add(bytes_scanned);
  stats().counter("device.select.bytes_returned").Add(bytes_returned);
  stats().counter("device.select.short_values").Add(short_values);
  stats()
      .counter(aggregate ? "device.cmd.kv_aggregate.rows"
                         : "device.cmd.kv_select.rows")
      .Add(matched);

  span.Arg("src", via_sidx ? "sidx"
                  : !planned.empty() ? "sidx_planned"
                                       : "primary");
  span.Arg("covered", std::uint64_t{covered});
  span.Arg("rows_scanned", rows.size());
  span.Arg("rows_matched", matched);
  span.Arg("bytes_scanned", bytes_scanned);
  span.Arg("bytes_returned", bytes_returned);
  co_return Status::Ok();
}

}  // namespace kvcsd::device
