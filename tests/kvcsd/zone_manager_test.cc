#include "kvcsd/zone_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "../testutil.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

struct ZmFixture {
  sim::Simulation sim;
  sim::FaultInjector faults;  // no rules unless a test adds them
  storage::ZnsSsd ssd{&sim, MakeConfig(&faults)};
  ZoneManager zm{&ssd, ZoneManagerConfig{}};

  static storage::ZnsConfig MakeConfig(sim::FaultInjector* faults) {
    storage::ZnsConfig c;
    c.zone_size = KiB(64);
    c.num_zones = 64;
    c.nand.channels = 8;
    c.faults = faults;
    return c;
  }

  // Allocates a cluster and writes one record into each of its zones.
  ClusterId AllocateWritten(ZoneType type) {
    const ClusterId id = zm.AllocateCluster(type).value();
    const std::string record(KiB(1), 'w');
    for (std::size_t i = 0; i < zm.cluster_zones(id).size(); ++i) {
      EXPECT_TRUE(testutil::RunSim(sim, zm.Append(id, Bytes(record))).ok());
    }
    return id;
  }

  Status Release(std::vector<ClusterId> ids) {
    return testutil::RunSim(sim, zm.ReleaseClusters(std::move(ids)));
  }

  // Allocates clusters until the pool runs dry; returns them in order.
  std::vector<std::vector<std::uint32_t>> DrainPool() {
    std::vector<std::vector<std::uint32_t>> out;
    for (;;) {
      auto id = zm.AllocateCluster(ZoneType::kKlog);
      if (!id.ok()) break;
      out.push_back(zm.cluster_zones(*id));
    }
    return out;
  }

  std::span<const std::byte> Bytes(const std::string& s) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(s.data()), s.size());
  }
};

TEST(ZoneManagerTest, AllocateClaimsZonesFromPool) {
  ZmFixture f;
  const std::size_t before = f.zm.free_zones();
  auto cluster = f.zm.AllocateCluster(ZoneType::kKlog);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(f.zm.free_zones(), before - 4);
  EXPECT_EQ(f.zm.cluster_zones(*cluster).size(), 4u);
  EXPECT_EQ(f.zm.cluster_type(*cluster), ZoneType::kKlog);
  // Reserved metadata zone never appears in clusters.
  for (std::uint32_t z : f.zm.cluster_zones(*cluster)) EXPECT_NE(z, 0u);
}

TEST(ZoneManagerTest, ExhaustionReported) {
  ZmFixture f;
  // 63 allocatable zones / 4 per cluster = 15 clusters.
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(f.zm.AllocateCluster(ZoneType::kVlog).ok()) << i;
  }
  auto last = f.zm.AllocateCluster(ZoneType::kVlog);
  EXPECT_EQ(last.status().code(), StatusCode::kOutOfSpace);
}

TEST(ZoneManagerTest, AppendRotatesAcrossZones) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kKlog).value();
  std::string record(KiB(1), 'r');
  std::set<std::uint32_t> zones_touched;
  for (int i = 0; i < 8; ++i) {
    auto addr = testutil::RunSim(f.sim, f.zm.Append(cluster,
                                                    f.Bytes(record)));
    ASSERT_TRUE(addr.ok());
    zones_touched.insert(
        static_cast<std::uint32_t>(*addr / f.ssd.zone_size()));
  }
  // 8 appends over a 4-zone cluster touch all 4 zones (round-robin).
  EXPECT_EQ(zones_touched.size(), 4u);
}

TEST(ZoneManagerTest, AppendDataReadableAtReturnedAddress) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kVlog).value();
  const std::string record = "payload-123456";
  auto addr = testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(record)));
  ASSERT_TRUE(addr.ok());
  std::string back(record.size(), '\0');
  ASSERT_TRUE(
      testutil::RunSim(
          f.sim, f.zm.Read(*addr, std::span<std::byte>(
                                      reinterpret_cast<std::byte*>(
                                          back.data()),
                                      back.size())))
          .ok());
  EXPECT_EQ(back, record);
}

TEST(ZoneManagerTest, ClusterFullWhenAllZonesFull) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kKlog).value();
  std::string big(KiB(64), 'x');  // exactly one zone
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(big))).ok());
  }
  auto overflow = testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(big)));
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfSpace);
}

TEST(ZoneManagerTest, ReleaseResetsZonesAndRefillsPool) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kTemp).value();
  std::string record(KiB(4), 't');
  ASSERT_TRUE(
      testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(record))).ok());
  const std::size_t free_before = f.zm.free_zones();
  ASSERT_TRUE(f.Release({cluster}).ok());
  EXPECT_EQ(f.zm.free_zones(), free_before + 4);
  EXPECT_EQ(f.zm.live_clusters(), 0u);
  EXPECT_GE(f.ssd.total_resets(), 4u);
}

TEST(ZoneManagerTest, RecordLargerThanZoneRejected) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kVlog).value();
  std::string huge(KiB(65), 'h');
  auto r = testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(huge)));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ZoneManagerTest, OpsOnUnknownClusterFail) {
  ZmFixture f;
  auto r = testutil::RunSim(f.sim, f.zm.Append(999, f.Bytes("x")));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ZoneManagerTest, ClusterBytesTracksPayload) {
  ZmFixture f;
  auto cluster = f.zm.AllocateCluster(ZoneType::kKlog).value();
  std::string record(1000, 'b');
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        testutil::RunSim(f.sim, f.zm.Append(cluster, f.Bytes(record))).ok());
  }
  EXPECT_EQ(f.zm.ClusterBytes(cluster), 5000u);
}

TEST(ZoneManagerTest, BatchReleaseLeavesSerialPoolOrder) {
  // One batch {A, B} and two one-cluster releases A then B leave the same
  // free pool, so every later allocation gets the same zone ids.
  ZmFixture batch;
  ZmFixture serial;
  const ClusterId a = batch.AllocateWritten(ZoneType::kTemp);
  const ClusterId b = batch.AllocateWritten(ZoneType::kVlog);
  ASSERT_EQ(serial.AllocateWritten(ZoneType::kTemp), a);
  ASSERT_EQ(serial.AllocateWritten(ZoneType::kVlog), b);
  ASSERT_TRUE(batch.Release({a, b}).ok());
  ASSERT_TRUE(serial.Release({a}).ok());
  ASSERT_TRUE(serial.Release({b}).ok());
  EXPECT_EQ(batch.ssd.total_resets(), serial.ssd.total_resets());
  const auto batch_pool = batch.DrainPool();
  EXPECT_EQ(batch_pool.size(), 15u);
  EXPECT_EQ(batch_pool, serial.DrainPool());
}

TEST(ZoneManagerTest, FailedResetKeepsOnlyThatClusterWhole) {
  ZmFixture f;
  const ClusterId a = f.AllocateWritten(ZoneType::kKlog);
  const ClusterId b = f.AllocateWritten(ZoneType::kVlog);
  const ClusterId c = f.AllocateWritten(ZoneType::kTemp);
  const std::vector<std::uint32_t> b_zones = f.zm.cluster_zones(b);
  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kReset;
  rule.zone = b_zones[2];
  f.faults.AddErrorRule(rule);
  const std::size_t free_before = f.zm.free_zones();

  const Status s = f.Release({a, b, c});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // A and C are free; B still owns all four zones.
  EXPECT_EQ(f.zm.free_zones(), free_before + 8);
  ASSERT_EQ(f.zm.live_clusters(), 1u);
  EXPECT_EQ(f.zm.LiveClusters()[0].first, b);
  EXPECT_EQ(f.zm.cluster_zones(b), b_zones);
  // No zone is both free and owned: nothing the pool hands out is B's.
  for (const auto& zones : f.DrainPool()) {
    for (std::uint32_t z : zones) {
      EXPECT_EQ(std::count(b_zones.begin(), b_zones.end(), z), 0) << z;
    }
  }
  // The failed cluster is not stuck mid-release: a retry frees it.
  const std::size_t live = f.zm.live_clusters();
  const std::size_t free = f.zm.free_zones();
  ASSERT_TRUE(f.Release({b}).ok());
  EXPECT_EQ(f.zm.live_clusters(), live - 1);
  EXPECT_EQ(f.zm.free_zones(), free + 4);
}

TEST(ZoneManagerTest, BatchResetsTakeOneEraseLatency) {
  ZmFixture f;
  std::vector<ClusterId> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(f.AllocateWritten(ZoneType::kTemp));
  }
  const Tick start = f.sim.Now();  // every channel idle again
  const std::uint64_t resets_before = f.ssd.total_resets();
  ASSERT_TRUE(f.Release(batch).ok());
  // 12 written zones over 8 channels, reset together: an erase holds its
  // channel only for a zero-byte transfer, so they all overlap.
  EXPECT_EQ(f.sim.Now() - start, f.ssd.config().nand.erase_latency);
  EXPECT_EQ(f.ssd.total_resets() - resets_before, 12u);
  EXPECT_EQ(f.zm.live_clusters(), 0u);
}

TEST(ZoneManagerTest, BatchSkipsDuplicateAndUnknownIds) {
  ZmFixture f;
  const ClusterId a = f.AllocateWritten(ZoneType::kKlog);
  const ClusterId b = f.AllocateWritten(ZoneType::kVlog);
  const std::size_t free_before = f.zm.free_zones();
  const std::uint64_t resets_before = f.ssd.total_resets();
  ASSERT_TRUE(f.Release({a, 999, a, b, b}).ok());
  EXPECT_EQ(f.zm.free_zones(), free_before + 8);
  EXPECT_EQ(f.zm.live_clusters(), 0u);
  EXPECT_EQ(f.ssd.total_resets() - resets_before, 8u);  // each zone once
  // Releasing ids no longer owned is a no-op.
  ASSERT_TRUE(f.Release({a, 999}).ok());
  EXPECT_EQ(f.zm.free_zones(), free_before + 8);
  EXPECT_EQ(f.ssd.total_resets() - resets_before, 8u);
}

TEST(ZoneManagerTest, ConcurrentBatchesResetEachClusterOnce) {
  // A second batch started while the first is still erasing skips the
  // cluster the first one claimed instead of resetting it again.
  ZmFixture f;
  const ClusterId a = f.AllocateWritten(ZoneType::kKlog);
  const std::uint64_t resets_before = f.ssd.total_resets();
  std::vector<Status> results;
  auto release = [](ZoneManager* zm, std::vector<Status>* out,
                    ClusterId id) -> sim::Task<void> {
    std::vector<ClusterId> ids{id};
    out->push_back(co_await zm->ReleaseClusters(std::move(ids)));
  };
  f.sim.Spawn(release(&f.zm, &results, a));
  f.sim.Spawn(release(&f.zm, &results, a));
  f.sim.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(f.ssd.total_resets() - resets_before, 4u);
  EXPECT_EQ(f.zm.live_clusters(), 0u);
}

}  // namespace
}  // namespace kvcsd::device
