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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
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
  Device dev{&sim, SmallDevice(), &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  CsdFixture() { dev.Start(); }

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
