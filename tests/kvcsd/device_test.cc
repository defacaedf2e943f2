// End-to-end tests of the KV-CSD device through the public client API:
// every command travels client -> PCIe/NVMe queue pair -> device and back.
#include "kvcsd/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "../nvme/round_trip.h"
#include "../testutil.h"
#include "client/client.h"
#include "common/coding.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "common/random.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);       // tiny: forces multi-run external sorts
  c.write_buffer_bytes = KiB(8);  // tiny: forces many log flushes
  return c;
}

// value = 28 pad bytes + f32 energy (little-endian), like a mini VPIC
// particle payload.
std::string EnergyValue(float energy) {
  std::string v(28, 'p');
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

TEST(CsdTest, CreateOpenDropKeyspace) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("ks1");
    EXPECT_TRUE(ks.ok());
    auto dup = co_await db->CreateKeyspace("ks1");
    EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
    auto opened = co_await db->OpenKeyspace("ks1");
    EXPECT_TRUE(opened.ok());
    EXPECT_EQ(opened->id(), ks->id());
    EXPECT_TRUE((co_await db->DropKeyspace("ks1")).ok());
    auto gone = co_await db->OpenKeyspace("ks1");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  }(&f.client()));
}

// A rejected name fails the create command before anything is
// persisted, and leaves nothing to open.
TEST(CsdTest, CreateRejectsDottedNameWithoutPersisting) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db,
                               sim::Simulation* sim) -> sim::Task<void> {
    const std::uint64_t appends =
        sim->stats().counter_value("zns.meta.appends");
    auto bad = co_await db->CreateKeyspace("vpic.file0");
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sim->stats().counter_value("zns.meta.appends"), appends);
    auto gone = co_await db->OpenKeyspace("vpic.file0");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
    auto ok = co_await db->CreateKeyspace("vpic_file0");
    EXPECT_TRUE(ok.ok());
    EXPECT_GT(sim->stats().counter_value("zns.meta.appends"), appends);
  }(&f.client(), &f.sim()));
}

TEST(CsdTest, PutCompactGet) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 3000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("ks")).value();
    Rng rng(5);
    for (int i = 0; i < kKeys; ++i) {
      // Random insertion order: compaction must sort.
      const std::uint64_t id = (rng.Next() % 100000) * 10 +
                               static_cast<std::uint64_t>(i % 10);
      EXPECT_TRUE((co_await ks.Put(MakeFixedKey(id),
                                   "value-" + std::to_string(id)))
                      .ok());
    }
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());

    auto stat = co_await ks.GetStat();
    EXPECT_TRUE(stat.ok());
    EXPECT_EQ(stat->state, "COMPACTED");
  }(&f.client()));
  EXPECT_EQ(f.dev().stats().counter_value("device.compact.done"), 1u);
}

TEST(CsdTest, BulkPutRoundTripsAllData) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 12000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("bulk")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE((co_await writer.Add(
                       MakeFixedKey(static_cast<std::uint64_t>(i)),
                       "v" + std::to_string(i)))
                      .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_GT(writer.frames_sent(), 1u);
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());

    std::string value;
    for (int i : {0, 1, 2499, 11998, 11999}) {
      auto v = co_await ks.Get(MakeFixedKey(static_cast<std::uint64_t>(i)));
      EXPECT_TRUE(v.ok()) << i << ": " << v.status().ToString();
      if (v.ok()) {
        EXPECT_EQ(*v, "v" + std::to_string(i));
      }
    }
    auto missing = co_await ks.Get(MakeFixedKey(999999));
    EXPECT_TRUE(missing.status().IsNotFound());
  }(&f.client()));
}

// A bulk frame whose last record is truncated fails as a whole: no
// record of it is buffered, logged, counted or compacted. It is long
// enough to cross the write buffer, so a partly applied frame would also
// have flushed some records to the log.
TEST(CsdTest, MalformedBulkFrameHasNoSideEffect) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(
      f.sim(),
      [](client::Client* db, nvme::QueueSet* qp) -> sim::Task<void> {
        auto created = co_await db->CreateKeyspace("frames");
        KVCSD_CO_ASSERT_OK(created);
        auto ks = std::move(*created);
        KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(0), "kept"));
        auto before = co_await ks.GetStat();
        KVCSD_CO_ASSERT_OK(before);

        constexpr std::uint64_t kRecords = 400;
        std::string frame;
        for (std::uint64_t i = 1; i <= kRecords; ++i) {
          PutLengthPrefixedSlice(&frame, Slice(MakeFixedKey(i)));
          PutLengthPrefixedSlice(&frame, Slice("frame-value-" +
                                               std::to_string(i)));
        }
        KVCSD_CO_ASSERT(frame.size() > SmallDevice().write_buffer_bytes);
        // The last record: a whole key, then a value whose length prefix
        // promises more bytes than the frame holds.
        PutLengthPrefixedSlice(&frame, Slice(MakeFixedKey(kRecords + 1)));
        PutVarint32(&frame, 64);
        frame.append("short");

        nvme::Command bulk;
        bulk.opcode = nvme::Opcode::kBulkStore;
        bulk.keyspace_id = ks.id();
        bulk.value = std::move(frame);
        auto done = co_await testutil::RoundTrip(qp, std::move(bulk));
        EXPECT_EQ(done.status.code(), StatusCode::kInvalidArgument);

        auto after = co_await ks.GetStat();
        KVCSD_CO_ASSERT_OK(after);
        EXPECT_EQ(after->num_kvs, before->num_kvs);

        KVCSD_CO_ASSERT_OK(co_await ks.Sync());
        KVCSD_CO_ASSERT_OK(co_await ks.Compact());
        KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
        auto compacted = co_await ks.GetStat();
        KVCSD_CO_ASSERT_OK(compacted);
        EXPECT_EQ(compacted->num_kvs, 1u);
        auto kept = co_await ks.Get(MakeFixedKey(0));
        KVCSD_CO_ASSERT_OK(kept);
        EXPECT_EQ(*kept, "kept");
        for (std::uint64_t i = 1; i <= kRecords + 1; ++i) {
          auto gone = co_await ks.Get(MakeFixedKey(i));
          EXPECT_TRUE(gone.status().IsNotFound()) << "record " << i;
        }
      }(&f.client(), &f.queue()));
}

TEST(CsdTest, QueriesRequireCompactedState) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("raw")).value();
    EXPECT_TRUE((co_await ks.Put(MakeFixedKey(1), "v")).ok());
    auto denied = co_await ks.Get(MakeFixedKey(1));
    EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
  }(&f.client()));
}

TEST(CsdTest, WritesRejectedWhileCompacting) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("locked")).value();
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE((co_await ks.Put(
                       MakeFixedKey(static_cast<std::uint64_t>(i)), "v"))
                      .ok());
    }
    EXPECT_TRUE((co_await ks.Compact()).ok());
    // Keyspace is COMPACTING right after the trigger returns: writes are
    // rejected kBusy — a retryable status, the logs are merely locked.
    auto rejected = co_await ks.Put(MakeFixedKey(99999), "late");
    EXPECT_EQ(rejected.code(), StatusCode::kBusy);
    EXPECT_TRUE(rejected.IsRetryable());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    // Once COMPACTED the keyspace is mutable again (delta mode).
    EXPECT_TRUE((co_await ks.Put(MakeFixedKey(99998), "later")).ok());
    auto readback = co_await ks.Get(MakeFixedKey(99998));
    EXPECT_TRUE(readback.ok());
    EXPECT_EQ(*readback, "later");
  }(&f.client()));
}

TEST(CsdTest, PrimaryRangeScanIsSortedAndComplete) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 4000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("scan")).value();
    auto writer = ks.NewBulkWriter();
    // Insert in reverse order to prove sorting.
    for (int i = kKeys - 1; i >= 0; --i) {
      EXPECT_TRUE((co_await writer.Add(
                       MakeFixedKey(static_cast<std::uint64_t>(i)),
                       "v" + std::to_string(i)))
                      .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());

    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE((co_await ks.Scan(MakeFixedKey(1000), MakeFixedKey(1199), 0,
                                  &out))
                    .ok());
    EXPECT_EQ(out.size(), 200u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].first, MakeFixedKey(1000 + i));
      EXPECT_EQ(out[i].second, "v" + std::to_string(1000 + i));
    }

    // Limit honoured.
    out.clear();
    EXPECT_TRUE(
        (co_await ks.Scan(MakeFixedKey(0), MakeFixedKey(kKeys), 7, &out))
            .ok());
    EXPECT_EQ(out.size(), 7u);
  }(&f.client()));
}

TEST(CsdTest, SecondaryIndexQueryByEnergy) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr int kKeys = 3000;
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("vpic")).value();
    auto writer = ks.NewBulkWriter();
    // Particle i has energy i * 0.01.
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(
          (co_await writer.Add(MakeFixedKey(static_cast<std::uint64_t>(i)),
                               EnergyValue(
                                   static_cast<float>(i) * 0.01f)))
              .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    EXPECT_TRUE((co_await ks.CreateSecondaryIndexF32("energy", 28)).ok());

    // energy in [20.00, 20.49] -> particles 2000..2049.
    std::vector<std::pair<std::string, std::string>> hits;
    EXPECT_TRUE((co_await ks.QuerySecondaryRangeF32("energy", 20.0f,
                                                    20.495f, 0, &hits))
                    .ok());
    EXPECT_EQ(hits.size(), 50u);
    std::vector<std::uint64_t> ids;
    for (const auto& [pkey, value] : hits) {
      ids.push_back(FixedKeyId(pkey));
      // The full particle payload comes back with the match.
      float energy;
      std::memcpy(&energy, value.data() + 28, 4);
      EXPECT_GE(energy, 20.0f);
      EXPECT_LE(energy, 20.495f);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.front(), 2000u);
    EXPECT_EQ(ids.back(), 2049u);

    // Unknown index name.
    hits.clear();
    auto s = co_await ks.QuerySecondaryRangeF32("nope", 0, 1, 0, &hits);
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  }(&f.client()));
}

TEST(CsdTest, SecondaryIndexRequiresCompaction) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("early")).value();
    EXPECT_TRUE((co_await ks.Put(MakeFixedKey(1),
                                 EnergyValue(1.0f)))
                    .ok());
    auto s = co_await ks.CreateSecondaryIndexF32("energy", 28);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }(&f.client()));
}

TEST(CsdTest, DropReclaimsZones) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db, Device* dev)
                              -> sim::Task<void> {
    const std::size_t free_at_start = dev->zones().free_zones();
    auto ks = (co_await db->CreateKeyspace("temp")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < 3000; ++i) {
      EXPECT_TRUE((co_await writer.Add(
                       MakeFixedKey(static_cast<std::uint64_t>(i)),
                       std::string(32, 'd')))
                      .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    EXPECT_LT(dev->zones().free_zones(), free_at_start);
    EXPECT_TRUE((co_await db->DropKeyspace("temp")).ok());
    EXPECT_EQ(dev->zones().free_zones(), free_at_start);
  }(&f.client(), &f.dev()));
}

TEST(CsdTest, DeleteDuringCompactionIsDeferred) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db, Device* dev,
                               sim::Simulation* s) -> sim::Task<void> {
    const std::size_t free_at_start = dev->zones().free_zones();
    auto ks = (co_await db->CreateKeyspace("doomed")).value();
    for (int i = 0; i < 3000; ++i) {
      EXPECT_TRUE((co_await ks.Put(
                       MakeFixedKey(static_cast<std::uint64_t>(i)), "v"))
                      .ok());
    }
    EXPECT_TRUE((co_await ks.Compact()).ok());
    // Drop while COMPACTING: accepted but deferred.
    EXPECT_TRUE((co_await db->DropKeyspace("doomed")).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    // The deferred delete runs asynchronously after compaction; give the
    // device time to finish resetting zones before checking.
    co_await s->Delay(Seconds(1));
    auto gone = co_await db->OpenKeyspace("doomed");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(dev->zones().free_zones(), free_at_start);
  }(&f.client(), &f.dev(), &f.sim()));
}

TEST(CsdTest, CompactionRunsAsynchronously) {
  // The command returns long before the compaction finishes: this is the
  // deferred-compaction latency hiding at the heart of the paper.
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  Tick trigger_done = 0;
  Tick compaction_done = 0;
  testutil::RunSim(f.sim(), [](client::Client* db, sim::Simulation* s,
                               Tick* trig, Tick* comp) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("async")).value();
    auto writer = ks.NewBulkWriter();
    for (int i = 0; i < 20000; ++i) {
      EXPECT_TRUE((co_await writer.Add(
                       MakeFixedKey(static_cast<std::uint64_t>(i)),
                       std::string(32, 'a')))
                      .ok());
    }
    EXPECT_TRUE((co_await writer.Drain()).ok());
    EXPECT_TRUE((co_await ks.Compact()).ok());
    *trig = s->Now();
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
    *comp = s->Now();
  }(&f.client(), &f.sim(), &trigger_done, &compaction_done));
  // Compaction took real (virtual) time after the trigger returned.
  EXPECT_GT(compaction_done, trigger_done + Milliseconds(1));
}

TEST(CsdTest, MetadataSurvivesPowerCycle) {
  // Build a keyspace, then attach a new Device "head" to the same
  // simulated SSD and recover the keyspace table from the metadata zone.
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* c) -> sim::Task<void> {
    auto ks = (co_await c->CreateKeyspace("durable")).value();
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE((co_await ks.Put(
                       MakeFixedKey(static_cast<std::uint64_t>(i)), "v"))
                      .ok());
    }
    EXPECT_TRUE((co_await ks.Compact()).ok());
    EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
  }(&f.client()));

  // "Reboot": recover a fresh keyspace manager from the same SSD.
  KeyspaceManager recovered(&f.dev().ssd());
  auto count = testutil::RunSim(f.sim(), recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  Keyspace* ks = recovered.Find("durable").value();
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->NumKvs(), 1000u);
  EXPECT_FALSE(ks->pidx_sketch.empty());
}

TEST(CsdTest, ConcurrentWritersOnSeparateKeyspaces) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  sim::WaitGroup wg(&f.sim());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  wg.Add(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    f.sim().Spawn([](client::Client* db, sim::WaitGroup* group, int thread)
                    -> sim::Task<void> {
      auto ks =
          (co_await db->CreateKeyspace("ks" + std::to_string(thread)))
              .value();
      auto writer = ks.NewBulkWriter();
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(
            (co_await writer.Add(
                 MakeFixedKey(static_cast<std::uint64_t>(i)),
                 "t" + std::to_string(thread) + "-" + std::to_string(i)))
                .ok());
      }
      EXPECT_TRUE((co_await writer.Drain()).ok());
      EXPECT_TRUE((co_await ks.Compact()).ok());
      EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
      // Keys are reused across keyspaces without conflict.
      auto v = co_await ks.Get(MakeFixedKey(7));
      EXPECT_TRUE(v.ok());
      if (v.ok()) {
        EXPECT_EQ(*v, "t" + std::to_string(thread) + "-7");
      }
      group->Done();
    }(&f.client(), &wg, t));
  }
  f.sim().Run();
  EXPECT_EQ(wg.count(), 0);
  EXPECT_EQ(f.dev().stats().counter_value("device.compact.done"),
            static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace kvcsd::device
