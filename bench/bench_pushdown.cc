// In-device query pushdown on VPIC (DESIGN.md §13): the Fig. 12 energy
// sweep re-run with SELECT/aggregate instead of a plain secondary-range
// query. Thresholds sweep selectivity from 0.1% to 20%; at each level the
// bench runs these device-side commands over every file keyspace and
// measures what actually crosses PCIe:
//
//   select      predicate energy >= T, full 48 B records back
//   projected   same predicate, value projected to the 4 B energy field
//   aggregate   count/min/max/sum of energy folded on the device — 32 B
//               of scalars per keyspace regardless of row count
//   full scan   no predicate: a select projected to 0 bytes and a count
//               aggregate, both on the primary plan
//
// The predicate commands name no index, so the device's scan planner
// collects their candidates through the energy SIDX; the full-scan leg
// keeps the primary plan measured beside them.
//
// The bench is also a correctness gate and exits nonzero, naming each
// failed check, when:
//   - the keyspaces fail to load, or any command returns a non-OK status;
//   - hit counts differ from the host model;
//   - select payload bytes differ from matches x 48 (matches x 20
//     projected): host-visible bytes scale with selectivity, never with
//     dataset size;
//   - a planned select scans other than matches x 32 value bytes (it
//     reads only the index range the predicate implies), or the full
//     scan other than every row and value byte of the dataset;
//   - the projected select or the sum aggregate scans other than
//     matches x 4 bytes: both read only the indexed energy, so they are
//     covered and filter the attribute bytes the SIDX entries hold;
//   - per-file aggregates are not BIT-IDENTICAL to
//     Dump::FileEnergyAggregate (same fold order, same double sum — not
//     approximately equal).
//
// Flags: --particles=N (default 1M) --files=F (default 16) --seed=S
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/tracing.h"
#include "nvme/skey.h"
#include "sim/sync.h"
#include "vpic_common.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT
using namespace kvcsd::bench;    // NOLINT

namespace {

using SelectOptions = client::KeyspaceHandle::SelectOptions;

struct PhaseResult {
  Tick time = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed = 0;         // commands with a non-OK status
  std::uint64_t d2h_bytes = 0;      // completion traffic over PCIe
  std::uint64_t payload_bytes = 0;  // device.select.bytes_returned delta
  std::uint64_t scanned_bytes = 0;  // device.select.bytes_scanned delta
};

// Failed correctness checks by name, so the verdict line says which
// contract broke.
class Verdict {
 public:
  void Fail(const std::string& check) {
    ++failures_;
    if (std::find(names_.begin(), names_.end(), check) == names_.end()) {
      names_.push_back(check);
    }
  }
  int failures() const { return failures_; }
  std::string Names() const {
    std::string out;
    for (const std::string& name : names_) {
      out += (out.empty() ? "" : ", ") + name;
    }
    return out;
  }

 private:
  int failures_ = 0;
  std::vector<std::string> names_;
};

SelectOptions EnergyPred(float threshold) {
  SelectOptions opts;
  opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe,
                                 vpic::kEnergyOffset, threshold);
  return opts;
}

nvme::AggregateSpec EnergyAgg(nvme::AggregateFunc func) {
  nvme::AggregateSpec spec;
  spec.func = func;
  spec.value_offset = vpic::kEnergyOffset;
  spec.value_length = 4;
  spec.type = nvme::SecondaryKeyType::kF32;
  return spec;
}

// Runs the commands `spawn` starts (one per keyspace, concurrently) to
// completion and measures their time, link traffic and device-side scan.
template <typename Spawn>
PhaseResult Measure(CsdTestbed& bed, Spawn spawn) {
  auto& stats = bed.sim().stats();
  const Tick start = bed.sim().Now();
  const std::uint64_t d2h0 = bed.queue().device_to_host_bytes();
  const std::uint64_t pay0 =
      stats.counter_value("device.select.bytes_returned");
  const std::uint64_t scan0 =
      stats.counter_value("device.select.bytes_scanned");
  PhaseResult r;
  spawn(&r);
  bed.sim().Run();
  r.time = bed.sim().Now() - start;
  r.d2h_bytes = bed.queue().device_to_host_bytes() - d2h0;
  r.payload_bytes =
      stats.counter_value("device.select.bytes_returned") - pay0;
  r.scanned_bytes =
      stats.counter_value("device.select.bytes_scanned") - scan0;
  return r;
}

PhaseResult RunSelect(CsdTestbed& bed,
                      std::vector<client::KeyspaceHandle>& handles,
                      const SelectOptions& opts) {
  return Measure(bed, [&](PhaseResult* r) {
    for (auto& ks : handles) {
      bed.sim().Spawn([](client::KeyspaceHandle handle, SelectOptions o,
                         PhaseResult* out) -> sim::Task<void> {
        std::vector<std::pair<std::string, std::string>> rows;
        if ((co_await handle.Select("", "\x7f", o, &rows)).ok()) {
          out->hits += rows.size();
        } else {
          ++out->failed;
        }
      }(ks, opts, r));
    }
  });
}

// One aggregate per keyspace; per-file results land in *results.
PhaseResult RunAggregate(CsdTestbed& bed,
                         std::vector<client::KeyspaceHandle>& handles,
                         const nvme::AggregateSpec& spec,
                         const SelectOptions& opts,
                         std::vector<nvme::AggregateResult>* results) {
  results->assign(handles.size(), nvme::AggregateResult{});
  return Measure(bed, [&](PhaseResult* r) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      bed.sim().Spawn([](client::KeyspaceHandle handle,
                         nvme::AggregateSpec s, SelectOptions o,
                         nvme::AggregateResult* result,
                         PhaseResult* out) -> sim::Task<void> {
        auto agg = co_await handle.Aggregate("", "\x7f", s, o);
        if (agg.ok()) {
          *result = *agg;
          out->hits += agg->rows;
        } else {
          ++out->failed;
        }
      }(handles[i], spec, opts, &(*results)[i], r));
    }
  });
}

// Per-file energy sums must match the host model bit-for-bit.
std::uint64_t CountAggregateMismatches(
    const vpic::Dump& dump, float threshold,
    const std::vector<nvme::AggregateResult>& device_aggs) {
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < device_aggs.size(); ++i) {
    const auto host = dump.FileEnergyAggregate(
        static_cast<std::uint32_t>(i), threshold);
    const auto& dev = device_aggs[i];
    if (dev.rows != host.rows || dev.valid != host.valid ||
        dev.min != host.min || dev.max != host.max || dev.sum != host.sum) {
      ++mismatches;
      std::printf(
          "MISMATCH file %zu: device rows=%llu min=%.17g max=%.17g "
          "sum=%.17g | host rows=%llu min=%.17g max=%.17g sum=%.17g\n",
          i, static_cast<unsigned long long>(dev.rows), dev.min, dev.max,
          dev.sum, static_cast<unsigned long long>(host.rows), host.min,
          host.max, host.sum);
    }
  }
  return mismatches;
}

double RowsPerSec(std::uint64_t rows, Tick time) {
  return static_cast<double>(rows) * 1e9 / static_cast<double>(time);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 1 << 20);
  gen.num_files = static_cast<std::uint32_t>(flags.GetUint("files", 16));
  gen.seed = flags.GetUint("seed", 2023);
  ApplyObservabilityFlags(flags);
  JsonReporter report("pushdown", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %s synthetic VPIC particles in %u files\n",
              FormatCount(gen.num_particles).c_str(), gen.num_files);

  const vpic::Dump dump(gen);
  CsdTestbed bed(config);
  std::vector<client::KeyspaceHandle> handles;
  if (auto load = LoadVpicIntoCsd(bed, dump, &handles); !load.ok()) {
    std::printf("FAIL: load: %s\n", load.status().ToString().c_str());
    return 1;
  }

  const std::uint64_t particles = gen.num_particles;
  const std::uint64_t dataset_value_bytes = particles * vpic::kPayloadBytes;
  const std::uint64_t record_bytes = vpic::kIdBytes + vpic::kPayloadBytes;

  SelectOptions projected_opts;
  projected_opts.proj.enabled = true;
  projected_opts.proj.offset = vpic::kEnergyOffset;
  projected_opts.proj.length = 4;
  // No predicate, values projected away: every row on the primary plan,
  // only keys cross the link.
  SelectOptions full_scan_opts;
  full_scan_opts.proj.enabled = true;

  Table table("Pushdown: host-visible bytes vs selectivity",
              {"selectivity", "matches", "select B", "projected B",
               "aggregate B", "scanned B", "select", "aggregate",
               "full scan"});
  Verdict verdict;
  std::vector<std::uint64_t> select_d2h;
  std::vector<std::uint64_t> agg_d2h;
  std::vector<std::uint64_t> match_counts;
  for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const float threshold = dump.EnergyThresholdForSelectivity(pct / 100.0);
    const std::uint64_t expected = dump.CountAbove(threshold);

    const SelectOptions pred = EnergyPred(threshold);
    SelectOptions projected = projected_opts;
    projected.pred = pred.pred;
    std::vector<nvme::AggregateResult> sums;
    std::vector<nvme::AggregateResult> counts;
    const PhaseResult sel = RunSelect(bed, handles, pred);
    const PhaseResult proj = RunSelect(bed, handles, projected);
    const PhaseResult agg = RunAggregate(
        bed, handles, EnergyAgg(nvme::AggregateFunc::kSum), pred, &sums);
    const PhaseResult full = RunSelect(bed, handles, full_scan_opts);
    const PhaseResult full_count = RunAggregate(
        bed, handles, EnergyAgg(nvme::AggregateFunc::kCount), {}, &counts);

    // --- correctness gates ---
    const std::uint64_t failed_cmds = sel.failed + proj.failed + agg.failed +
                                      full.failed + full_count.failed;
    if (failed_cmds != 0) {
      std::printf("FAIL %.1f%%: %llu commands returned an error\n", pct,
                  static_cast<unsigned long long>(failed_cmds));
      verdict.Fail("command status");
    }
    if (sel.hits != expected || proj.hits != expected ||
        agg.hits != expected) {
      std::printf("FAIL %.1f%%: hits select=%llu proj=%llu agg=%llu, "
                  "host model says %llu\n", pct,
                  static_cast<unsigned long long>(sel.hits),
                  static_cast<unsigned long long>(proj.hits),
                  static_cast<unsigned long long>(agg.hits),
                  static_cast<unsigned long long>(expected));
      verdict.Fail("hit counts");
    }
    if (const std::uint64_t mismatches =
            CountAggregateMismatches(dump, threshold, sums);
        mismatches != 0) {
      std::printf("FAIL %.1f%%: %llu per-file aggregate mismatches\n", pct,
                  static_cast<unsigned long long>(mismatches));
      verdict.Fail("aggregate bit-identity");
    }
    // Returned payload is exactly matches x record (or projected record):
    // host-visible bytes track selectivity, not dataset size.
    if (sel.payload_bytes != expected * record_bytes) {
      std::printf("FAIL %.1f%%: select payload %llu != matches x %llu\n",
                  pct, static_cast<unsigned long long>(sel.payload_bytes),
                  static_cast<unsigned long long>(record_bytes));
      verdict.Fail("select payload");
    }
    if (proj.payload_bytes != expected * (vpic::kIdBytes + 4)) {
      std::printf("FAIL %.1f%%: projected payload %llu != matches x %llu\n",
                  pct, static_cast<unsigned long long>(proj.payload_bytes),
                  static_cast<unsigned long long>(vpic::kIdBytes + 4));
      verdict.Fail("projected payload");
    }
    // The planned select reads exactly the matching values: its index
    // range is the predicate's, so no candidate is a non-match.
    if (sel.scanned_bytes != expected * vpic::kPayloadBytes) {
      std::printf("FAIL %.1f%%: planned scan read %llu != matches x %u\n",
                  pct, static_cast<unsigned long long>(sel.scanned_bytes),
                  vpic::kPayloadBytes);
      verdict.Fail("planned scan bytes");
    }
    // Projection, predicate and aggregate read only the indexed energy:
    // the covered plan filters the 4 attribute bytes of every match and
    // gathers no value.
    if (proj.scanned_bytes != expected * 4 ||
        agg.scanned_bytes != expected * 4) {
      std::printf("FAIL %.1f%%: covered scans read %llu (projected) / %llu "
                  "(aggregate) != matches x 4\n",
                  pct, static_cast<unsigned long long>(proj.scanned_bytes),
                  static_cast<unsigned long long>(agg.scanned_bytes));
      verdict.Fail("covered scan bytes");
    }
    // The unfiltered primary plan reads the whole dataset every time,
    // selectivity aside, and ships keys only.
    if (full.scanned_bytes != dataset_value_bytes ||
        full.hits != particles ||
        full.payload_bytes != particles * vpic::kIdBytes ||
        full_count.scanned_bytes != dataset_value_bytes ||
        full_count.hits != particles) {
      std::printf("FAIL %.1f%%: full scan read %llu B / counted %llu rows, "
                  "dataset is %llu B / %llu rows\n",
                  pct, static_cast<unsigned long long>(full.scanned_bytes),
                  static_cast<unsigned long long>(full_count.hits),
                  static_cast<unsigned long long>(dataset_value_bytes),
                  static_cast<unsigned long long>(particles));
      verdict.Fail("full scan");
    }

    select_d2h.push_back(sel.d2h_bytes);
    agg_d2h.push_back(agg.d2h_bytes);
    match_counts.push_back(expected);

    char sel_label[32];
    std::snprintf(sel_label, sizeof(sel_label), "%.1f%%", pct);
    table.AddRow({sel_label, FormatCount(expected),
                  FormatBytes(sel.d2h_bytes), FormatBytes(proj.d2h_bytes),
                  FormatBytes(agg.d2h_bytes),
                  FormatBytes(sel.scanned_bytes), FormatSeconds(sel.time),
                  FormatSeconds(agg.time), FormatSeconds(full.time)});

    char point[32];
    std::snprintf(point, sizeof(point), "sel%.1f", pct);
    const std::string prefix = std::string("csd.pushdown.") + point;
    report.AddMetric(prefix + ".matches", expected);
    report.AddMetric(prefix + ".select_d2h_bytes", sel.d2h_bytes);
    report.AddMetric(prefix + ".projected_d2h_bytes", proj.d2h_bytes);
    report.AddMetric(prefix + ".aggregate_d2h_bytes", agg.d2h_bytes);
    report.AddMetric(prefix + ".scanned_bytes", sel.scanned_bytes);
    report.AddMetric(prefix + ".full_scan_bytes", full.scanned_bytes);
    report.AddMetric(prefix + ".select_rows_per_sec",
                     RowsPerSec(expected, sel.time));
    report.AddMetric(prefix + ".aggregate_rows_per_sec",
                     RowsPerSec(expected, agg.time));
    report.AddMetric(prefix + ".full_scan_rows_per_sec",
                     RowsPerSec(particles, full.time));
  }
  table.Print();

  // Sweep-level shape checks. Selects must scale with selectivity: the
  // 20% level returns ~200x the matches of the 0.1% level, so it must
  // move at least 20x the bytes. Aggregates must NOT scale: the per-level
  // completion traffic is a fixed 48 B per keyspace.
  if (select_d2h.back() < select_d2h.front() * 20) {
    std::printf("FAIL: select d2h bytes do not scale with selectivity "
                "(%llu at 0.1%% vs %llu at 20%%)\n",
                static_cast<unsigned long long>(select_d2h.front()),
                static_cast<unsigned long long>(select_d2h.back()));
    verdict.Fail("select scaling");
  }
  for (std::size_t i = 1; i < agg_d2h.size(); ++i) {
    if (agg_d2h[i] != agg_d2h.front()) {
      std::printf("FAIL: aggregate d2h bytes vary with selectivity "
                  "(%llu vs %llu)\n",
                  static_cast<unsigned long long>(agg_d2h.front()),
                  static_cast<unsigned long long>(agg_d2h[i]));
      verdict.Fail("aggregate traffic");
    }
  }
  const double byte_spread = static_cast<double>(select_d2h.back()) /
                             static_cast<double>(select_d2h.front());
  const double match_spread = static_cast<double>(match_counts.back()) /
                              static_cast<double>(match_counts.front());
  if (verdict.failures() == 0) {
    std::printf("OK: device aggregates bit-identical to host model; select "
                "bytes scale %.0fx across a %.0fx match spread\n",
                byte_spread, match_spread);
  } else {
    std::printf("FAIL: %s; select bytes scale %.0fx across a %.0fx match "
                "spread\n",
                verdict.Names().c_str(), byte_spread, match_spread);
  }

  report.AddMetric("csd.pushdown.failures",
                   static_cast<std::uint64_t>(verdict.failures()));
  report.AddStats(bed.sim().stats(), "device.select.");
  report.AddStats(bed.sim().stats(), "device.cmd.kv_");
  // The select and aggregate commands' latency ledgers and path series.
  report.AddStats(bed.sim().stats(), "client.cmd.kv_");
  report.AddTable(table);
  report.WriteIfRequested();
  return verdict.failures() == 0 ? 0 : 1;
}
