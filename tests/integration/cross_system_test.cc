// Cross-system integration tests: the same dataset loaded into KV-CSD and
// into the RocksLite baseline must answer every query identically, and
// both must agree with ground truth computed directly from the generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../testutil.h"
#include "common/keys.h"
#include "harness/testbed.h"
#include "nvme/skey.h"
#include "sim/sync.h"
#include "vpic/vpic.h"

namespace kvcsd {
namespace {

using harness::CsdTestbed;
using harness::LsmTestbed;
using harness::TestbedConfig;

class CrossSystemTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kParticles = 40000;

  CrossSystemTest()
      : dump_(MakeGen()),
        csd_(TestbedConfig::Scaled()),
        lsm_(TestbedConfig::Scaled()) {}

  static vpic::GeneratorConfig MakeGen() {
    vpic::GeneratorConfig gen;
    gen.num_particles = kParticles;
    gen.num_files = 4;
    gen.seed = 31337;
    return gen;
  }

  void LoadBoth() {
    // KV-CSD: one keyspace holding the whole dump.
    testutil::RunSim(csd_.sim(), [](CsdTestbed* bed, const vpic::Dump* dump,
                                    client::KeyspaceHandle* out)
                                     -> sim::Task<void> {
      auto ks = (co_await bed->client().CreateKeyspace("x")).value();
      auto writer = ks.NewBulkWriter();
      for (const vpic::Particle& p : dump->all()) {
        EXPECT_TRUE((co_await writer.Add(p.Key(), p.Payload())).ok());
      }
      EXPECT_TRUE((co_await writer.Drain()).ok());
      EXPECT_TRUE((co_await ks.Compact()).ok());
      EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
      EXPECT_TRUE((co_await ks.CreateSecondaryIndexF32(
                       "energy", vpic::kEnergyOffset))
                      .ok());
      *out = ks;
    }(&csd_, &dump_, &keyspace_));

    // RocksLite: primary + auxiliary records, auto compaction.
    testutil::RunSim(lsm_.sim(), [](LsmTestbed* bed, const vpic::Dump* dump,
                                    std::unique_ptr<lsm::Db>* out)
                                     -> sim::Task<void> {
      auto db =
          (co_await bed->OpenDb("x", lsm::CompactionMode::kAuto)).value();
      for (const vpic::Particle& p : dump->all()) {
        EXPECT_TRUE(
            (co_await db->Put('\x00' + p.Key(), p.Payload())).ok());
        std::string aux(1, '\x01');
        aux += nvme::EncodeSecondaryF32(p.energy);
        AppendBigEndian64(&aux, p.id);
        EXPECT_TRUE((co_await db->Put(aux, p.Key())).ok());
      }
      EXPECT_TRUE((co_await db->Flush()).ok());
      co_await db->WaitForIdle();
      *out = std::move(db);
    }(&lsm_, &dump_, &db_));
  }

  std::set<std::uint64_t> CsdEnergyQuery(float threshold) {
    std::set<std::uint64_t> ids;
    testutil::RunSim(csd_.sim(), [](client::KeyspaceHandle ks, float t,
                                    std::set<std::uint64_t>* out)
                                     -> sim::Task<void> {
      std::vector<std::pair<std::string, std::string>> hits;
      EXPECT_TRUE(
          (co_await ks.QuerySecondaryRangeF32("energy", t, 1e30f, 0, &hits))
              .ok());
      for (const auto& [pkey, payload] : hits) {
        out->insert(FixedKeyId(pkey));
      }
    }(keyspace_, threshold, &ids));
    return ids;
  }

  std::set<std::uint64_t> LsmEnergyQuery(float threshold) {
    std::set<std::uint64_t> ids;
    testutil::RunSim(lsm_.sim(), [](lsm::Db* db, float t,
                                    std::set<std::uint64_t>* out)
                                     -> sim::Task<void> {
      std::string lo(1, '\x01');
      lo += nvme::EncodeSecondaryF32(t);
      std::string hi(1, '\x01');
      hi += std::string(13, '\xff');
      std::vector<std::pair<std::string, std::string>> aux;
      EXPECT_TRUE((co_await db->RangeScan(lo, hi, 0, &aux)).ok());
      std::string value;
      for (const auto& [akey, pkey] : aux) {
        // Two-step: fetch the full particle via the primary key.
        EXPECT_TRUE((co_await db->Get('\x00' + pkey, &value)).ok());
        out->insert(FixedKeyId(pkey));
      }
    }(db_.get(), threshold, &ids));
    return ids;
  }

  vpic::Dump dump_;
  CsdTestbed csd_;
  LsmTestbed lsm_;
  client::KeyspaceHandle keyspace_;
  std::unique_ptr<lsm::Db> db_;
};

TEST_F(CrossSystemTest, PointLookupsAgree) {
  LoadBoth();
  testutil::RunSim(csd_.sim(), [](client::KeyspaceHandle ks,
                                  const vpic::Dump* dump) -> sim::Task<void> {
    for (std::uint64_t id : {std::uint64_t{0}, std::uint64_t{777},
                             kParticles - 1}) {
      auto v = co_await ks.Get(dump->all()[id].Key());
      EXPECT_TRUE(v.ok());
      if (v.ok()) {
        EXPECT_EQ(*v, dump->all()[id].Payload());
      }
    }
  }(keyspace_, &dump_));
  testutil::RunSim(lsm_.sim(), [](lsm::Db* db,
                                  const vpic::Dump* dump) -> sim::Task<void> {
    std::string v;
    for (std::uint64_t id : {std::uint64_t{0}, std::uint64_t{777},
                             kParticles - 1}) {
      EXPECT_TRUE(
          (co_await db->Get('\x00' + dump->all()[id].Key(), &v)).ok());
      EXPECT_EQ(v, dump->all()[id].Payload());
    }
  }(db_.get(), &dump_));
}

TEST_F(CrossSystemTest, SecondaryQueriesMatchGroundTruthAndEachOther) {
  LoadBoth();
  for (double fraction : {0.002, 0.02, 0.1}) {
    const float threshold = dump_.EnergyThresholdForSelectivity(fraction);
    std::set<std::uint64_t> truth;
    for (const vpic::Particle& p : dump_.all()) {
      if (p.energy >= threshold) truth.insert(p.id);
    }
    std::set<std::uint64_t> csd_ids = CsdEnergyQuery(threshold);
    std::set<std::uint64_t> lsm_ids = LsmEnergyQuery(threshold);
    EXPECT_EQ(csd_ids, truth) << "fraction=" << fraction;
    EXPECT_EQ(lsm_ids, truth) << "fraction=" << fraction;
  }
}

TEST_F(CrossSystemTest, PrimaryRangeScansAgree) {
  LoadBoth();
  const std::uint64_t lo_id = 1000, hi_id = 1250;
  std::vector<std::pair<std::string, std::string>> csd_hits;
  testutil::RunSim(
      csd_.sim(),
      [](client::KeyspaceHandle ks, std::uint64_t lo, std::uint64_t hi,
         std::vector<std::pair<std::string, std::string>>* out)
          -> sim::Task<void> {
        EXPECT_TRUE((co_await ks.Scan(MakeFixedKey(lo), MakeFixedKey(hi), 0,
                                      out))
                        .ok());
      }(keyspace_, lo_id, hi_id, &csd_hits));
  std::vector<std::pair<std::string, std::string>> lsm_hits;
  testutil::RunSim(
      lsm_.sim(),
      [](lsm::Db* db, std::uint64_t lo, std::uint64_t hi,
         std::vector<std::pair<std::string, std::string>>* out)
          -> sim::Task<void> {
        EXPECT_TRUE((co_await db->RangeScan('\x00' + MakeFixedKey(lo),
                                            '\x00' + MakeFixedKey(hi), 0,
                                            out))
                        .ok());
      }(db_.get(), lo_id, hi_id, &lsm_hits));

  ASSERT_EQ(csd_hits.size(), hi_id - lo_id + 1);
  ASSERT_EQ(lsm_hits.size(), csd_hits.size());
  for (std::size_t i = 0; i < csd_hits.size(); ++i) {
    EXPECT_EQ('\x00' + csd_hits[i].first, lsm_hits[i].first);
    EXPECT_EQ(csd_hits[i].second, lsm_hits[i].second);
  }
}

}  // namespace
}  // namespace kvcsd
