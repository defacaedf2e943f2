// In-device query pushdown (DESIGN.md §13): SELECT with value predicates,
// byte-range projection, and count/min/max/sum aggregation. Covers the
// happy paths plus the edge cases the wire format makes possible:
// predicates over values too short to hold the attribute, projections past
// the value end, aggregates over zero matches, pushdown against a keyspace
// with a live delta (tombstones must not count), and a power cut in the
// middle of a select scan. The scan-planner tests pin that a predicate-only
// command collected through a matching secondary index answers exactly as
// the primary plan does.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/coding.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "nvme/skey.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  return c;
}

struct CsdFixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::QueueSetConfig{}};
  Device dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  explicit CsdFixture(const DeviceConfig& config = SmallDevice())
      : dev(&sim, config, &qp) {
    dev.Start();
  }

  // value = 28 pad bytes + f32 energy (little-endian) — the VPIC layout.
  static std::string EnergyValue(float energy) {
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &energy, 4);
    v.append(buf, 4);
    return v;
  }
};

// Loads keys [0, count) with EnergyValue(i) and compacts.
sim::Task<client::KeyspaceHandle> LoadCompacted(client::Client* db,
                                                const std::string& name,
                                                std::uint64_t count) {
  auto ks = (co_await db->CreateKeyspace(name)).value();
  for (std::uint64_t i = 0; i < count; ++i) {
    auto put =
        co_await ks.Put(MakeFixedKey(i), CsdFixture::EnergyValue(
                                             static_cast<float>(i)));
    EXPECT_TRUE(put.ok());
  }
  EXPECT_TRUE((co_await ks.Compact()).ok());
  EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
  co_return ks;
}

nvme::AggregateSpec EnergyAgg(nvme::AggregateFunc func) {
  nvme::AggregateSpec agg;
  agg.func = func;
  agg.value_offset = 28;
  agg.value_length = 4;
  agg.type = nvme::SecondaryKeyType::kF32;
  return agg;
}

// --------------------------------------------------------------------------
// Baseline: a primary-range select with an energy predicate returns exactly
// the host-model rows, and only those bytes cross the link.
// --------------------------------------------------------------------------
TEST(PushdownTest, SelectFiltersOnDevice) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 500;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "sel", kKeys);

    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 400.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 100);  // energies 400..499
    for (std::uint64_t i = 0; i < rows.size(); ++i) {
      KVCSD_CO_ASSERT(rows[i].first == MakeFixedKey(400 + i));
      KVCSD_CO_ASSERT(rows[i].second ==
                      CsdFixture::EnergyValue(static_cast<float>(400 + i)));
    }

    // Device-side accounting: every value was scanned, 1/5 matched.
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.rows_scanned") == kKeys);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.rows_matched") == 100);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.bytes_scanned") ==
        kKeys * 32);

    // A limit caps matches, not scanned rows.
    opts.limit = 7;
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 7);
    KVCSD_CO_ASSERT(rows[0].first == MakeFixedKey(400));
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Secondary-index-driven pushdown: the sidx narrows the scan, the predicate
// filters on a *different* byte range of the value.
// --------------------------------------------------------------------------
TEST(PushdownTest, SelectThroughSecondaryIndex) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 400;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("sidx")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      // Pad byte differs for even/odd keys so a bytes-predicate can split
      // the sidx window in half.
      std::string v(28, i % 2 == 0 ? 'e' : 'o');
      const float energy = static_cast<float>(i);
      char buf[4];
      std::memcpy(buf, &energy, 4);
      v.append(buf, 4);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), v));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndexF32("energy", 28));

    // Sidx window [100, 200) = 100 rows; even pad keeps 50 of them.
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    opts.pred = nvme::PredicateBytes(nvme::PredicateOp::kEq, 0, "e");
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select(
        nvme::EncodeSecondaryF32(100.0f), nvme::EncodeSecondaryF32(199.5f),
        opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 50);
    for (const auto& [key, value] : rows) {
      KVCSD_CO_ASSERT(value[0] == 'e');
    }

    // Same window, aggregated: count matches without shipping any rows.
    auto agg = co_await ks.Aggregate(nvme::EncodeSecondaryF32(100.0f),
                                     nvme::EncodeSecondaryF32(199.5f),
                                     EnergyAgg(nvme::AggregateFunc::kCount),
                                     opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 50);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: predicate over a value shorter than the attribute window.
// Short values can never match — they are skipped, counted, and must not
// fail the command.
// --------------------------------------------------------------------------
TEST(PushdownTest, PredicateOverShortValue) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("short")).value();
    // 10 full-width records, 5 short ones (too short for offset 28 + 4).
    for (std::uint64_t i = 0; i < 10; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    for (std::uint64_t i = 10; i < 15; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), "tiny"));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // energy >= 0 matches every full-width record but no short one, even
    // though the predicate itself accepts the minimum f32.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 0.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 10);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.short_values") == 5);

    // Aggregating over the same predicate: the 5 short values are not rows.
    auto agg = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kSum), opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 10);
    KVCSD_CO_ASSERT(agg->valid);
    KVCSD_CO_ASSERT(agg->sum == 45.0);  // 0+1+...+9
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Edge case: projection range past the value end. The device clamps rather
// than faulting: a window straddling the end truncates, a window starting
// at or past the end yields an empty value (the key still ships).
// --------------------------------------------------------------------------
TEST(PushdownTest, ProjectionPastValueEnd) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("proj")).value();
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(1), "abcdef"));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(2), "xy"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Window [4, 4+8) truncates "abcdef" to "ef" and empties "xy".
    client::KeyspaceHandle::SelectOptions opts;
    opts.proj.enabled = true;
    opts.proj.offset = 4;
    opts.proj.length = 8;
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);
    KVCSD_CO_ASSERT(rows[0].second == "ef");
    KVCSD_CO_ASSERT(rows[1].second.empty());

    // In-bounds window for contrast.
    opts.proj.offset = 1;
    opts.proj.length = 2;
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows[0].second == "bc");
    KVCSD_CO_ASSERT(rows[1].second == "y");

    // Projection is a select feature: an aggregate with one is rejected.
    auto agg = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: aggregate over zero matches. rows == 0, valid == false, and
// the scalars stay at their zero defaults instead of inventing extrema.
// --------------------------------------------------------------------------
TEST(PushdownTest, AggregateOverZeroMatches) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "zero", 50);

    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGt, 28, 1e9f);
    for (const auto func :
         {nvme::AggregateFunc::kCount, nvme::AggregateFunc::kMin,
          nvme::AggregateFunc::kMax, nvme::AggregateFunc::kSum}) {
      auto agg = co_await ks.Aggregate("", "\x7f", EnergyAgg(func), opts);
      KVCSD_CO_ASSERT_OK(agg);
      KVCSD_CO_ASSERT(agg->rows == 0);
      KVCSD_CO_ASSERT(!agg->valid);
      KVCSD_CO_ASSERT(agg->sum == 0.0);
      KVCSD_CO_ASSERT(agg->min == 0.0 && agg->max == 0.0);
    }

    // An empty primary range (not just an unmatched predicate) agrees.
    auto agg = co_await ks.Aggregate(MakeFixedKey(1000), MakeFixedKey(2000),
                                     EnergyAgg(nvme::AggregateFunc::kCount));
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 0 && !agg->valid);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: pushdown against a keyspace with a live delta. The overwrite
// must be seen at its new energy, the tombstoned record must not count, and
// the fresh insert must count — for both select and aggregate.
// --------------------------------------------------------------------------
TEST(PushdownTest, LiveDeltaTombstoneDoesNotCount) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "delta", kKeys);

    // Baseline over energies >= 250: keys 250..299.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 250.0f);
    auto before = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(before);
    KVCSD_CO_ASSERT(before->rows == 50);

    // Delta mutations: kill one match, demote another below the threshold,
    // promote a low-energy key above it, and insert a brand-new match.
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(260)));
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(270), CsdFixture::EnergyValue(1.5f)));
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(10), CsdFixture::EnergyValue(900.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 7),
                                       CsdFixture::EnergyValue(901.0f)));

    // 50 - tombstone - demotion + promotion + insert = 50.
    auto after = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(after);
    KVCSD_CO_ASSERT(after->rows == 50);

    // The select row set names the survivors exactly.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 50);
    bool saw_promoted = false;
    bool saw_inserted = false;
    for (const auto& [key, value] : rows) {
      KVCSD_CO_ASSERT(key != MakeFixedKey(260));  // tombstoned
      KVCSD_CO_ASSERT(key != MakeFixedKey(270));  // demoted
      if (key == MakeFixedKey(10)) saw_promoted = true;
      if (key == MakeFixedKey(kKeys + 7)) saw_inserted = true;
    }
    KVCSD_CO_ASSERT(saw_promoted);
    KVCSD_CO_ASSERT(saw_inserted);

    // max reflects the delta insert, not just the compacted run.
    auto max = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kMax), opts);
    KVCSD_CO_ASSERT_OK(max);
    KVCSD_CO_ASSERT(max->valid);
    KVCSD_CO_ASSERT(max->max == 901.0);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Scan planner: a predicate-only pushdown whose range predicate sits on
// exactly an indexed attribute collects its candidates through the SIDX,
// yet must answer byte-for-byte what the primary plan answers. Two
// keyspaces hold the same rows; only "indexed" carries the SIDX, so every
// comparison pits the planned scan against the primary plan.
// --------------------------------------------------------------------------

constexpr std::uint64_t kPlanKeys = 2000;
constexpr std::uint64_t kPlanClasses = 100;

// Energy of attribute class k in [0, kPlanClasses), increasing in k. The
// binary exponent climbs 10 per class over the lowest and the highest six
// classes, where the selective predicates below land, and 1 per class in
// between, so a double sum over most of those ranges rounds and
// reproduces only in one fold order.
float PlanEnergy(std::uint64_t k) {
  const int c = static_cast<int>(k);
  const int exponent = c < 6 ? -60 - 10 * (5 - c)
                       : c >= 94 ? 50 + 10 * (c - 94)
                                 : c - 58;
  return std::ldexp(1.0f + static_cast<float>(k) * 0.0137f, exponent);
}

struct PlanPair {
  client::KeyspaceHandle plain;
  client::KeyspaceHandle indexed;
};

// Key i holds PlanEnergy(i % kPlanClasses): every energy is tied across 20
// keys scattered through the key space, so the SIDX's (skey, pkey) order
// differs from primary-key order.
sim::Task<client::KeyspaceHandle> LoadPlanKeyspace(client::Client* db,
                                                   std::string name) {
  auto ks = (co_await db->CreateKeyspace(name)).value();
  for (std::uint64_t i = 0; i < kPlanKeys; ++i) {
    EXPECT_TRUE((co_await ks.Put(MakeFixedKey(i),
                                 CsdFixture::EnergyValue(
                                     PlanEnergy(i % kPlanClasses))))
                    .ok());
  }
  EXPECT_TRUE((co_await ks.Compact()).ok());
  EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
  co_return ks;
}

sim::Task<PlanPair> LoadPlanPair(client::Client* db) {
  PlanPair pair;
  pair.plain = co_await LoadPlanKeyspace(db, "plain");
  pair.indexed = co_await LoadPlanKeyspace(db, "indexed");
  EXPECT_TRUE((co_await pair.indexed.CreateSecondaryIndexF32("energy", 28))
                  .ok());
  co_return pair;
}

// Which plan the device chose for the last command, from the counters.
struct PlanProbe {
  const sim::Simulation* sim;
  std::uint64_t primary0;
  std::uint64_t sidx0;
  std::uint64_t short0;

  explicit PlanProbe(const sim::Simulation* s)
      : sim(s),
        primary0(Count("device.select.plan.primary")),
        sidx0(Count("device.select.plan.sidx")),
        short0(Count("device.select.short_values")) {}
  std::uint64_t Count(const char* name) const {
    return sim->stats().counter_value(name);
  }
  bool planned() const { return Count("device.select.plan.sidx") != sidx0; }
  bool primary() const {
    return Count("device.select.plan.primary") != primary0;
  }
  std::uint64_t short_values() const {
    return Count("device.select.short_values") - short0;
  }
};

struct SelectAnswer {
  StatusCode code = StatusCode::kOk;
  std::vector<std::pair<std::string, std::string>> rows;
  std::uint64_t short_values = 0;
  bool planned = false;
  bool primary = false;
};

sim::Task<SelectAnswer> SelectOnce(sim::Simulation* sim,
                                   client::KeyspaceHandle ks, std::string lo,
                                   std::string hi,
                                   client::KeyspaceHandle::SelectOptions opts) {
  SelectAnswer a;
  PlanProbe probe(sim);
  a.code = (co_await ks.Select(lo, hi, opts, &a.rows)).code();
  a.short_values = probe.short_values();
  a.planned = probe.planned();
  a.primary = probe.primary();
  co_return a;
}

struct AggregateAnswer {
  StatusCode code = StatusCode::kOk;
  nvme::AggregateResult agg;
  std::uint64_t short_values = 0;
  bool planned = false;
};

sim::Task<AggregateAnswer> AggregateOnce(
    sim::Simulation* sim, client::KeyspaceHandle ks, std::string lo,
    std::string hi, client::KeyspaceHandle::SelectOptions opts) {
  AggregateAnswer a;
  PlanProbe probe(sim);
  auto agg = co_await ks.Aggregate(lo, hi,
                                   EnergyAgg(nvme::AggregateFunc::kSum), opts);
  a.code = agg.status().code();
  if (agg.ok()) a.agg = *agg;
  a.short_values = probe.short_values();
  a.planned = probe.planned();
  co_return a;
}

void ExpectSameSelect(const SelectAnswer& primary, const SelectAnswer& other) {
  EXPECT_EQ(primary.code, other.code);
  EXPECT_EQ(primary.rows, other.rows);
  EXPECT_EQ(primary.short_values, other.short_values);
}

// Bitwise: the planned scan must fold in the primary plan's order.
void ExpectSameAggregate(const AggregateAnswer& primary,
                         const AggregateAnswer& other) {
  EXPECT_EQ(primary.code, other.code);
  EXPECT_EQ(primary.agg.rows, other.agg.rows);
  EXPECT_EQ(primary.agg.valid, other.agg.valid);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(primary.agg.min),
            std::bit_cast<std::uint64_t>(other.agg.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(primary.agg.max),
            std::bit_cast<std::uint64_t>(other.agg.max));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(primary.agg.sum),
            std::bit_cast<std::uint64_t>(other.agg.sum));
  EXPECT_EQ(primary.short_values, other.short_values);
}

struct PlannedCase {
  nvme::PredicateOp op;
  std::uint64_t bound_class;
  std::uint64_t matches;  // over the whole key space, before any delta
};

// Every range op, each selective enough that the index plan wins.
constexpr PlannedCase kPlannedCases[] = {
    {nvme::PredicateOp::kEq, 37, 20},  {nvme::PredicateOp::kLt, 5, 100},
    {nvme::PredicateOp::kLe, 5, 120},  {nvme::PredicateOp::kGt, 94, 100},
    {nvme::PredicateOp::kGe, 94, 120},
};

// Runs select (plain, projected, limit-cut) and a kSum aggregate for one
// predicate over [lo, hi] on both keyspaces and checks they agree, with
// the indexed keyspace planned through its SIDX.
sim::Task<void> ExpectPlanEquivalence(sim::Simulation* sim, PlanPair pair,
                                      nvme::ValuePredicate pred,
                                      std::string lo, std::string hi) {
  client::KeyspaceHandle::SelectOptions opts;
  opts.pred = pred;
  SelectAnswer primary = co_await SelectOnce(sim, pair.plain, lo, hi, opts);
  SelectAnswer planned = co_await SelectOnce(sim, pair.indexed, lo, hi, opts);
  EXPECT_TRUE(primary.primary && !primary.planned);
  EXPECT_TRUE(planned.planned);
  EXPECT_FALSE(primary.rows.empty());
  ExpectSameSelect(primary, planned);

  opts.proj.enabled = true;
  opts.proj.offset = 26;
  opts.proj.length = 6;
  ExpectSameSelect(co_await SelectOnce(sim, pair.plain, lo, hi, opts),
                   co_await SelectOnce(sim, pair.indexed, lo, hi, opts));

  // 7 lands inside the first run of tied energies in (skey, pkey) order;
  // the cut must still keep the 7 smallest primary keys.
  opts.proj.enabled = false;
  opts.limit = 7;
  primary = co_await SelectOnce(sim, pair.plain, lo, hi, opts);
  planned = co_await SelectOnce(sim, pair.indexed, lo, hi, opts);
  EXPECT_EQ(primary.rows.size(), 7u);
  ExpectSameSelect(primary, planned);

  opts.limit = 0;
  const AggregateAnswer agg_primary =
      co_await AggregateOnce(sim, pair.plain, lo, hi, opts);
  const AggregateAnswer agg_planned =
      co_await AggregateOnce(sim, pair.indexed, lo, hi, opts);
  EXPECT_TRUE(agg_planned.planned);
  EXPECT_GT(agg_primary.agg.rows, 0u);
  ExpectSameAggregate(agg_primary, agg_planned);
}

TEST(PushdownTest, PlannedScanMatchesPrimaryPlan) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    const PlanPair pair = co_await LoadPlanPair(db);
    for (const PlannedCase& c : kPlannedCases) {
      const auto pred =
          nvme::PredicateF32(c.op, 28, PlanEnergy(c.bound_class));
      // Whole key space, then a sub-range the index rows must be cut to.
      co_await ExpectPlanEquivalence(sim, pair, pred, "", "\x7f");
      co_await ExpectPlanEquivalence(sim, pair, pred, MakeFixedKey(150),
                                     MakeFixedKey(1850));

      // The planned scan reads only the predicate's index range: an
      // equality's candidates are exactly its matches.
      client::KeyspaceHandle::SelectOptions opts;
      opts.pred = pred;
      const std::uint64_t scanned0 =
          sim->stats().counter_value("device.select.rows_scanned");
      const SelectAnswer a =
          co_await SelectOnce(sim, pair.indexed, "", "\x7f", opts);
      const std::uint64_t scanned =
          sim->stats().counter_value("device.select.rows_scanned") - scanned0;
      KVCSD_CO_ASSERT(a.rows.size() == c.matches);
      if (c.op == nvme::PredicateOp::kEq) {
        KVCSD_CO_ASSERT(scanned == c.matches);
      }
      KVCSD_CO_ASSERT(scanned < kPlanKeys / 4);
    }
  }(&f.db, &f.sim));
}

TEST(PushdownTest, PlannerKeepsOtherCommandsOnTheirPlan) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    const PlanPair pair = co_await LoadPlanPair(db);
    const float bound = PlanEnergy(94);

    // kNe, a predicate at another offset, and one of another type each
    // stay on the primary plan and agree with the unindexed keyspace.
    nvme::ValuePredicate as_u32 = nvme::PredicateF32(
        nvme::PredicateOp::kGe, 28, bound);
    as_u32.type = nvme::SecondaryKeyType::kU32;
    for (const nvme::ValuePredicate& pred :
         {nvme::PredicateF32(nvme::PredicateOp::kNe, 28, bound),
          nvme::PredicateF32(nvme::PredicateOp::kGe, 24, bound), as_u32}) {
      client::KeyspaceHandle::SelectOptions opts;
      opts.pred = pred;
      const SelectAnswer primary =
          co_await SelectOnce(sim, pair.plain, "", "\x7f", opts);
      const SelectAnswer other =
          co_await SelectOnce(sim, pair.indexed, "", "\x7f", opts);
      KVCSD_CO_ASSERT(other.primary && !other.planned);
      ExpectSameSelect(primary, other);
      ExpectSameAggregate(
          co_await AggregateOnce(sim, pair.plain, "", "\x7f", opts),
          co_await AggregateOnce(sim, pair.indexed, "", "\x7f", opts));
    }

    // A ~100%-selectivity range predicate: the index range spans at least
    // as many blocks as the primary range, so the planner falls back.
    client::KeyspaceHandle::SelectOptions all;
    all.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, PlanEnergy(0));
    const SelectAnswer everything =
        co_await SelectOnce(sim, pair.indexed, "", "\x7f", all);
    KVCSD_CO_ASSERT(everything.primary && !everything.planned);
    KVCSD_CO_ASSERT(everything.rows.size() == kPlanKeys);
    ExpectSameSelect(co_await SelectOnce(sim, pair.plain, "", "\x7f", all),
                     everything);

    // An explicitly named index is the host's plan: the planner neither
    // re-plans nor counts it.
    client::KeyspaceHandle::SelectOptions named;
    named.index_name = "energy";
    named.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, bound);
    const SelectAnswer by_name = co_await SelectOnce(
        sim, pair.indexed, nvme::EncodeSecondaryF32(PlanEnergy(90)),
        nvme::EncodeSecondaryF32(PlanEnergy(99)), named);
    KVCSD_CO_ASSERT(by_name.code == StatusCode::kOk);
    KVCSD_CO_ASSERT(!by_name.primary && !by_name.planned);
    KVCSD_CO_ASSERT(by_name.rows.size() == 120);
  }(&f.db, &f.sim));
}

TEST(PushdownTest, PlannedScanSeesTheDelta) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    const PlanPair pair = co_await LoadPlanPair(db);
    for (client::KeyspaceHandle ks : {pair.plain, pair.indexed}) {
      // Key 296 (class 96) drops below every upper threshold and into the
      // lower ones; key 10 (class 10) rises into the upper ones; key 195
      // (a class-95 match) and key 1 (a class-1 match) die; a new key
      // arrives at the top class.
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(296), CsdFixture::EnergyValue(PlanEnergy(3))));
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(10), CsdFixture::EnergyValue(PlanEnergy(98))));
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(195)));
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(1)));
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(kPlanKeys + 5),
          CsdFixture::EnergyValue(PlanEnergy(99))));
    }
    for (const PlannedCase& c : kPlannedCases) {
      co_await ExpectPlanEquivalence(
          sim, pair, nvme::PredicateF32(c.op, 28, PlanEnergy(c.bound_class)),
          "", "\x7f");
    }

    // A delta value too short for the attribute: the primary plan counts
    // it in short_values, so the planner leaves the command to that plan.
    for (client::KeyspaceHandle ks : {pair.plain, pair.indexed}) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(400), "tiny"));
    }
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, PlanEnergy(94));
    const SelectAnswer primary =
        co_await SelectOnce(sim, pair.plain, "", "\x7f", opts);
    const SelectAnswer other =
        co_await SelectOnce(sim, pair.indexed, "", "\x7f", opts);
    KVCSD_CO_ASSERT(primary.code == StatusCode::kOk);
    KVCSD_CO_ASSERT(primary.short_values == 1);
    KVCSD_CO_ASSERT(other.primary && !other.planned);
    ExpectSameSelect(primary, other);
    ExpectSameAggregate(
        co_await AggregateOnce(sim, pair.plain, "", "\x7f", opts),
        co_await AggregateOnce(sim, pair.indexed, "", "\x7f", opts));
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Covered plan: a command collected through a SIDX whose predicate,
// aggregate and projection read only the indexed attribute takes those
// bytes from the index entries and gathers no value. For every key type it
// must answer exactly what the same command answers uncovered (reading
// one byte past the attribute, so every value is gathered), and read no
// SORTED_VALUES byte. The attribute ends each value, so a projection one
// byte wider returns the same bytes.
// --------------------------------------------------------------------------

constexpr std::uint64_t kCoverKeys = 600;
constexpr std::uint32_t kCoverOffset = 8;
constexpr std::uint64_t kCoverClasses = 97;  // keys i and i + 97 tie

struct CoverCase {
  const char* name;
  nvme::SecondaryKeyType type;
  std::uint32_t width;
};
constexpr CoverCase kCoverCases[] = {
    {"u32", nvme::SecondaryKeyType::kU32, 4},
    {"i32", nvme::SecondaryKeyType::kI32, 4},
    {"u64", nvme::SecondaryKeyType::kU64, 8},
    {"f32", nvme::SecondaryKeyType::kF32, 4},
    {"f64", nvme::SecondaryKeyType::kF64, 8},
    {"bytes", nvme::SecondaryKeyType::kBytes, 6},
};

// Float bit patterns the order encoding must carry through unchanged:
// -0.0, +0.0, +inf, -inf, quiet and signalling NaNs of both signs with
// payloads, the smallest denormal of each sign, the largest finite value.
constexpr std::uint32_t kF32Edges[] = {
    0x80000000u, 0x00000000u, 0x7f800000u, 0xff800000u, 0x7fc00001u,
    0xffc00123u, 0x7f800001u, 0xff800007u, 0x00000001u, 0x807fffffu,
    0x7f7fffffu};
constexpr std::uint64_t kF64Edges[] = {
    0x8000000000000000ull, 0x0000000000000000ull, 0x7ff0000000000000ull,
    0xfff0000000000000ull, 0x7ff8000000000001ull, 0xfff8000000000123ull,
    0x7ff0000000000001ull, 0xfff0000000000007ull, 0x0000000000000001ull,
    0x800fffffffffffffull, 0x7fefffffffffffffull};

// The raw attribute of key i: the edge values first, then one value per
// class, spread over signs and magnitudes so double sums round.
std::string CoverAttribute(const CoverCase& c, std::uint64_t i) {
  const std::uint64_t k = i % kCoverClasses;
  const std::uint64_t mix = (k + 1) * 0x9E3779B97F4A7C15ull;
  const int exponent = static_cast<int>(k) - 48;
  const double sign = k % 2 == 0 ? 1.0 : -1.0;
  std::string raw;
  switch (c.type) {
    case nvme::SecondaryKeyType::kU32:
    case nvme::SecondaryKeyType::kI32:
      PutFixed32(&raw, static_cast<std::uint32_t>(mix >> 32));
      break;
    case nvme::SecondaryKeyType::kU64:
      PutFixed64(&raw, mix);
      break;
    case nvme::SecondaryKeyType::kF32:
      PutFixed32(&raw,
                 i < std::size(kF32Edges)
                     ? kF32Edges[i]
                     : std::bit_cast<std::uint32_t>(static_cast<float>(
                           sign * std::ldexp(1.0 + 0.0137 * k, exponent))));
      break;
    case nvme::SecondaryKeyType::kF64:
      PutFixed64(&raw, i < std::size(kF64Edges)
                           ? kF64Edges[i]
                           : std::bit_cast<std::uint64_t>(
                                 sign * std::ldexp(1.0 + 0.0137 * k,
                                                   6 * exponent)));
      break;
    case nvme::SecondaryKeyType::kBytes:
      PutFixed64(&raw, mix);
      raw.resize(c.width);
      break;
  }
  return raw;
}

std::string CoverValue(const CoverCase& c, std::uint64_t i) {
  return std::string(kCoverOffset, 'p') + CoverAttribute(c, i);
}

nvme::SecondaryIndexSpec CoverIndex(const CoverCase& c) {
  nvme::SecondaryIndexSpec spec;
  spec.name = "attr";
  spec.value_offset = kCoverOffset;
  spec.value_length = c.width;
  spec.type = c.type;
  return spec;
}

// Whether the last command planned covered, and the SORTED_VALUES bytes it
// read, from the counters.
struct CoverProbe {
  const sim::Simulation* sim;
  std::uint64_t covered0;
  std::uint64_t values0;

  explicit CoverProbe(const sim::Simulation* s)
      : sim(s),
        covered0(Count("device.select.plan.covered")),
        values0(Count("zns.sorted_values.read_bytes")) {}
  std::uint64_t Count(const char* name) const {
    return sim->stats().counter_value(name);
  }
  bool covered() const {
    return Count("device.select.plan.covered") != covered0;
  }
  std::uint64_t values_read() const {
    return Count("zns.sorted_values.read_bytes") - values0;
  }
};

// The covered plan's bytes come from DecodeSecondaryKeyBytes, which must
// invert the index's order encoding bit for bit.
TEST(PushdownTest, DecodeSecondaryKeyBytesInvertsTheEncoding) {
  for (const CoverCase& c : kCoverCases) {
    const nvme::SecondaryIndexSpec spec = CoverIndex(c);
    for (std::uint64_t i = 0; i < kCoverClasses; ++i) {
      const std::string raw = CoverAttribute(c, i);
      auto encoded = nvme::EncodeSecondaryKeyBytes(Slice(raw), spec);
      ASSERT_TRUE(encoded.ok()) << c.name;
      auto decoded = nvme::DecodeSecondaryKeyBytes(Slice(*encoded), spec);
      ASSERT_TRUE(decoded.ok()) << c.name;
      EXPECT_EQ(*decoded, raw) << c.name << " attribute " << i;
    }
    if (c.type != nvme::SecondaryKeyType::kBytes) {
      EXPECT_FALSE(nvme::DecodeSecondaryKeyBytes(Slice("x"), spec).ok())
          << c.name;  // a typed key of the wrong width
    }
  }
}

// Runs one select covered (projection = the attribute) and uncovered
// (projection one byte wider) and checks they return the same rows.
sim::Task<void> ExpectCoveredSelect(
    sim::Simulation* sim, client::KeyspaceHandle ks, const CoverCase& c,
    std::string lo, std::string hi,
    client::KeyspaceHandle::SelectOptions opts) {
  opts.proj.enabled = true;
  opts.proj.offset = kCoverOffset;
  opts.proj.length = c.width;
  std::vector<std::pair<std::string, std::string>> covered;
  CoverProbe probe(sim);
  KVCSD_CO_ASSERT_OK(co_await ks.Select(lo, hi, opts, &covered));
  EXPECT_TRUE(probe.covered()) << c.name;
  EXPECT_EQ(probe.values_read(), 0u) << c.name;

  opts.proj.length = c.width + 1;
  std::vector<std::pair<std::string, std::string>> uncovered;
  CoverProbe wide(sim);
  KVCSD_CO_ASSERT_OK(co_await ks.Select(lo, hi, opts, &uncovered));
  EXPECT_FALSE(wide.covered()) << c.name;
  EXPECT_FALSE(covered.empty()) << c.name;
  EXPECT_EQ(covered, uncovered) << c.name;
}

nvme::AggregateSpec CoverAggregate(const CoverCase& c) {
  nvme::AggregateSpec agg;
  if (c.type == nvme::SecondaryKeyType::kBytes) {
    agg.func = nvme::AggregateFunc::kCount;  // min/max/sum need a number
  } else {
    agg.func = nvme::AggregateFunc::kSum;
    agg.value_offset = kCoverOffset;
    agg.value_length = c.width;
    agg.type = c.type;
  }
  return agg;
}

// Runs one aggregate covered on `covered_ks` and with `uncovered_opts` on
// `uncovered_ks`, and checks the scalars bit for bit.
sim::Task<void> ExpectCoveredAggregate(
    sim::Simulation* sim, const CoverCase& c, std::string lo, std::string hi,
    client::KeyspaceHandle covered_ks,
    client::KeyspaceHandle::SelectOptions covered_opts,
    client::KeyspaceHandle uncovered_ks,
    client::KeyspaceHandle::SelectOptions uncovered_opts) {
  const nvme::AggregateSpec agg = CoverAggregate(c);
  CoverProbe probe(sim);
  auto covered = co_await covered_ks.Aggregate(lo, hi, agg, covered_opts);
  KVCSD_CO_ASSERT_OK(covered);
  EXPECT_TRUE(probe.covered()) << c.name;
  EXPECT_EQ(probe.values_read(), 0u) << c.name;

  CoverProbe wide(sim);
  auto uncovered =
      co_await uncovered_ks.Aggregate(lo, hi, agg, uncovered_opts);
  KVCSD_CO_ASSERT_OK(uncovered);
  EXPECT_FALSE(wide.covered()) << c.name;
  EXPECT_GT(covered->rows, 0u) << c.name;
  EXPECT_EQ(covered->rows, uncovered->rows) << c.name;
  EXPECT_EQ(covered->valid, uncovered->valid) << c.name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(covered->min),
            std::bit_cast<std::uint64_t>(uncovered->min))
      << c.name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(covered->max),
            std::bit_cast<std::uint64_t>(uncovered->max))
      << c.name;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(covered->sum),
            std::bit_cast<std::uint64_t>(uncovered->sum))
      << c.name;
}

sim::Task<client::KeyspaceHandle> LoadCoverKeyspace(client::Client* db,
                                                    const CoverCase& c,
                                                    std::string name) {
  auto ks = (co_await db->CreateKeyspace(name)).value();
  for (std::uint64_t i = 0; i < kCoverKeys; ++i) {
    EXPECT_TRUE((co_await ks.Put(MakeFixedKey(i), CoverValue(c, i))).ok());
  }
  EXPECT_TRUE((co_await ks.Compact()).ok());
  EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
  co_return ks;
}

// A range predicate on the attribute that keeps roughly its top tenth in
// encoded order: selective enough for the planner to pick the index.
nvme::ValuePredicate CoverPredicate(const CoverCase& c) {
  const nvme::SecondaryIndexSpec spec = CoverIndex(c);
  std::vector<std::string> encoded;
  for (std::uint64_t i = 0; i < kCoverKeys; ++i) {
    encoded.push_back(
        nvme::EncodeSecondaryKeyBytes(Slice(CoverAttribute(c, i)), spec)
            .value());
  }
  std::sort(encoded.begin(), encoded.end());
  nvme::ValuePredicate pred;
  pred.op = nvme::PredicateOp::kGe;
  pred.value_offset = kCoverOffset;
  pred.value_length = c.width;
  pred.type = c.type;
  pred.operand = encoded[encoded.size() * 9 / 10];
  return pred;
}

// Every comparison for one key type: through the named index (whole
// range and a limit cut) and through the planner, select and aggregate.
sim::Task<void> ExpectCoveredAnswers(sim::Simulation* sim,
                                     client::KeyspaceHandle indexed,
                                     client::KeyspaceHandle plain,
                                     const CoverCase& c) {
  const std::string all_lo;
  const std::string all_hi(c.width, '\xff');
  client::KeyspaceHandle::SelectOptions named;
  named.index_name = "attr";
  co_await ExpectCoveredSelect(sim, indexed, c, all_lo, all_hi, named);
  named.limit = 7;
  co_await ExpectCoveredSelect(sim, indexed, c, all_lo, all_hi, named);
  named.limit = 0;
  client::KeyspaceHandle::SelectOptions padded = named;
  padded.pred =
      nvme::PredicateBytes(nvme::PredicateOp::kGe, 0, std::string(1, '\0'));
  co_await ExpectCoveredAggregate(sim, c, all_lo, all_hi, indexed, named,
                                  indexed, padded);

  client::KeyspaceHandle::SelectOptions planned;
  planned.pred = CoverPredicate(c);
  co_await ExpectCoveredSelect(sim, indexed, c, "", "\x7f", planned);
  co_await ExpectCoveredAggregate(sim, c, "", "\x7f", indexed, planned,
                                  plain, planned);
}

TEST(PushdownTest, CoveredPlanMatchesUncoveredForEveryKeyType) {
  for (const CoverCase& cover : kCoverCases) {
    CsdFixture f;
    testutil::RunSim(f.sim, [](client::Client* db, sim::Simulation* sim,
                               const CoverCase* c) -> sim::Task<void> {
      auto indexed = co_await LoadCoverKeyspace(db, *c, "indexed");
      auto plain = co_await LoadCoverKeyspace(db, *c, "plain");
      KVCSD_CO_ASSERT_OK(co_await indexed.CreateSecondaryIndex(CoverIndex(*c)));
      co_await ExpectCoveredAnswers(sim, indexed, plain, *c);

      // A live delta: an overwrite that moves key 20's attribute to
      // another class, a tombstone, and a key only the delta holds.
      for (client::KeyspaceHandle ks : {indexed, plain}) {
        KVCSD_CO_ASSERT_OK(co_await ks.Put(
            MakeFixedKey(20), CoverValue(*c, kCoverClasses + 90)));
        KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(11)));
        KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kCoverKeys + 3),
                                           CoverValue(*c, 95)));
      }
      co_await ExpectCoveredAnswers(sim, indexed, plain, *c);
    }(&f.db, &f.sim, &cover));
  }
}

// --------------------------------------------------------------------------
// Sliced filter charge: the filter holds a SoC core for one kIndexBlockSize
// slice of rows at a time, so a GET queued behind a long select waits at
// most one slice, and the slices add up to one charge of the whole scan.
// --------------------------------------------------------------------------

Tick PushdownBusy(Device& dev) {
  return dev.cpu().meter().TotalBusy()[static_cast<std::size_t>(
      sim::Activity::kPushdown)];
}

// 20% of 2000 EnergyValue keys match; the primary plan filters all 2000.
constexpr std::uint64_t kSliceKeys = 2000;

client::KeyspaceHandle::SelectOptions TopFifth() {
  client::KeyspaceHandle::SelectOptions opts;
  opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 1600.0f);
  return opts;
}

// The pushdown core time of a select is its index-block reads, its gather
// reads and one filter charge of every scanned row and byte: exactly what
// one un-sliced charge of the filter would book.
TEST(PushdownTest, SlicedFilterBooksTheOneShotCharge) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db, sim::Simulation* sim,
                             Device* dev) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "busy", kSliceKeys);
    auto count = [sim](const char* name) {
      return sim->stats().counter_value(name);
    };
    const Tick busy0 = PushdownBusy(*dev);
    const std::uint64_t hits0 = count("device.read_cache.hits");
    const std::uint64_t misses0 = count("device.read_cache.misses");
    const std::uint64_t ranges0 = count("device.gather.ranges");
    const std::uint64_t rows0 = count("device.select.rows_scanned");
    const std::uint64_t bytes0 = count("device.select.bytes_scanned");
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", TopFifth(), &rows));
    KVCSD_CO_ASSERT(rows.size() == kSliceKeys / 5);

    const hostenv::CostModel& costs = dev->config().costs;
    const std::uint64_t scanned = count("device.select.rows_scanned") - rows0;
    KVCSD_CO_ASSERT(scanned == kSliceKeys);
    const Tick one_shot =
        TransferTicks(count("device.select.bytes_scanned") - bytes0,
                      costs.extract_bytes_per_sec) +
        static_cast<Tick>(scanned) * costs.kv_op_fixed;
    const Tick reads =
        (count("device.read_cache.misses") - misses0) *
            (costs.io_path_overhead + costs.block_search) +
        (count("device.read_cache.hits") - hits0) * costs.block_search +
        (count("device.gather.ranges") - ranges0) * costs.io_path_overhead;
    EXPECT_EQ(PushdownBusy(*dev) - busy0, reads + one_shot);
  }(&f.db, &f.sim, &f.dev));
}

// On a one-core device a GET popped while a select filters waits for the
// slice in progress, not for the whole filter.
TEST(PushdownTest, GetQueuedBehindSelectWaitsOneSlice) {
  DeviceConfig one_core = SmallDevice();
  one_core.soc_cores = 1;
  CsdFixture f(one_core);
  testutil::RunSim(f.sim, [](client::Client* db, sim::Simulation* sim,
                             Device* dev) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "hol", kSliceKeys);
    const std::uint64_t seq0 = sim->log().Entries().back().seq;

    // GETs back to back for as long as the select runs.
    bool done = false;
    sim->Spawn([](client::KeyspaceHandle h, bool* flag) -> sim::Task<void> {
      std::vector<std::pair<std::string, std::string>> rows;
      EXPECT_TRUE((co_await h.Select("", "\x7f", TopFifth(), &rows)).ok());
      EXPECT_EQ(rows.size(), kSliceKeys / 5);
      *flag = true;
    }(ks, &done));
    std::uint64_t gets = 0;
    while (!done) {
      KVCSD_CO_ASSERT_OK(
          co_await ks.Get(MakeFixedKey(gets++ * 7 % kSliceKeys)));
    }

    // Every row is a 16 B key and a 32 B value, so a slice is the first
    // 86 rows to reach 4 KiB; the cumulative rounding moves a slice's byte
    // charge by at most 1 tick.
    const hostenv::CostModel& costs = dev->config().costs;
    constexpr std::uint64_t kSliceRows = kIndexBlockSize / 48 + 1;
    const Tick slice = TransferTicks(kSliceRows * 32,
                                     costs.extract_bytes_per_sec) +
                       1 + kSliceRows * costs.kv_op_fixed;
    const Tick whole = TransferTicks(kSliceKeys * 32,
                                     costs.extract_bytes_per_sec) +
                       kSliceKeys * costs.kv_op_fixed;
    Tick max_wait = 0;
    std::uint64_t logged = 0;
    for (const sim::Log::Entry& e : sim->log().Entries()) {
      if (e.seq <= seq0 || !e.is_command ||
          std::strcmp(e.command.op, "kv_retrieve") != 0) {
        continue;
      }
      ++logged;
      // dispatch_ns includes the GET's own dispatch charge.
      max_wait = std::max(max_wait,
                          e.command.dispatch_ns - costs.syscall_overhead);
    }
    KVCSD_CO_ASSERT(logged == gets);
    KVCSD_CO_ASSERT(gets >= 3);
    // One charge of the whole filter would hold the core 20 slices long.
    KVCSD_CO_ASSERT(whole > 20 * slice);
    EXPECT_LE(max_wait, slice);
  }(&f.db, &f.sim, &f.dev));
}

// --------------------------------------------------------------------------
// Edge case: power cut during a select scan. The in-flight command fails,
// the crash point fires, and after restart + recovery the same select runs
// to completion against intact data.
// --------------------------------------------------------------------------
DeviceConfig SmallFaultyDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

struct PowerCycleFixture {
  sim::Simulation sim;
  sim::FaultInjector faults{7};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  PowerCycleFixture() : cfg(SmallFaultyDevice()) {
    cfg.zns.faults = &faults;
    faults.set_torn_tail_keep(0.5);
    qps.push_back(
        std::make_unique<nvme::QueueSet>(&sim, nvme::QueueSetConfig{}));
    devs.push_back(std::make_unique<Device>(&sim, cfg, qps.back().get()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }

  Device* dev() { return devs.back().get(); }

  void Restart() {
    qps.push_back(
        std::make_unique<nvme::QueueSet>(&sim, nvme::QueueSetConfig{}));
    devs.push_back(
        Device::Restart(&sim, cfg, qps.back().get(), *devs.back()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }
};

TEST(PushdownTest, PowerCutDuringSelectScan) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 200;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("pcut")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  }(f.db.get()));

  // Arm the crash inside the select path, after row collection.
  f.faults.ArmCrashAtPoint("select.mid_scan", 1);
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::FaultInjector* faults) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 150.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    auto st = co_await ks->Select("", "\x7f", opts, &rows);
    KVCSD_CO_ASSERT(!st.ok());
    KVCSD_CO_ASSERT(faults->crashed());
  }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "select.mid_scan");

  // Power cycle; the same select now completes against recovered data.
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev,
                             client::Client* db) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    auto stat = co_await ks->GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    if (stat->state != "COMPACTED") {
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
      KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    }
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 150.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys - 150);
    auto agg = co_await ks->Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == kKeys - 150);
  }(f.dev(), f.db.get()));
}

// The planned path runs the same crash point after row collection.
TEST(PushdownTest, PowerCutDuringPlannedSelectScan) {
  PowerCycleFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadPlanKeyspace(db, "pcut");
    KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndexF32("energy", 28));
  }(f.db.get()));

  f.faults.ArmCrashAtPoint("select.mid_scan", 1);
  testutil::RunSim(f.sim, [](client::Client* db, sim::Simulation* sim,
                             sim::FaultInjector* faults) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred =
        nvme::PredicateF32(nvme::PredicateOp::kGe, 28, PlanEnergy(94));
    const SelectAnswer a = co_await SelectOnce(sim, *ks, "", "\x7f", opts);
    KVCSD_CO_ASSERT(a.code != StatusCode::kOk);
    KVCSD_CO_ASSERT(a.planned);
    KVCSD_CO_ASSERT(faults->crashed());
  }(f.db.get(), &f.sim, &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "select.mid_scan");

  // After the power cycle the recovered index plans the same select.
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev, client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred =
        nvme::PredicateF32(nvme::PredicateOp::kGe, 28, PlanEnergy(94));
    const SelectAnswer a = co_await SelectOnce(sim, *ks, "", "\x7f", opts);
    KVCSD_CO_ASSERT(a.code == StatusCode::kOk);
    KVCSD_CO_ASSERT(a.planned);
    KVCSD_CO_ASSERT(a.rows.size() == 120);
  }(f.dev(), f.db.get(), &f.sim));
}

// --------------------------------------------------------------------------
// Wire-format validation: malformed descriptors fail fast with
// InvalidArgument instead of scanning.
// --------------------------------------------------------------------------
TEST(PushdownTest, RejectsMalformedDescriptors) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "bad", 10);

    // Typed predicate whose length disagrees with its type.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 1.0f);
    opts.pred.value_length = 8;
    std::vector<std::pair<std::string, std::string>> rows;
    auto st = co_await ks.Select("", "\x7f", opts, &rows);
    KVCSD_CO_ASSERT(st.code() == StatusCode::kInvalidArgument);

    // Aggregate without a function.
    nvme::AggregateSpec no_func;
    auto agg = co_await ks.Aggregate("", "\x7f", no_func);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);

    // min/max/sum over a bytes attribute.
    nvme::AggregateSpec bytes_sum;
    bytes_sum.func = nvme::AggregateFunc::kSum;
    bytes_sum.value_offset = 0;
    bytes_sum.value_length = 4;
    bytes_sum.type = nvme::SecondaryKeyType::kBytes;
    agg = co_await ks.Aggregate("", "\x7f", bytes_sum);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);
  }(&f.db));
}

}  // namespace
}  // namespace kvcsd::device
