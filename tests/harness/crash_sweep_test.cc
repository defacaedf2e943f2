// Exhaustive crash-point sweep: crash the fixed workload at EVERY
// reachable crash-point pass, power-cycle, recover, and hold the device
// to the acknowledged-state contract.
#include "harness/crash_sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace kvcsd::harness {
namespace {

CrashSweepConfig SweepConfig() {
  CrashSweepConfig c;
  c.keyspaces = 2;
  // Small enough to sweep every hit in ctest, big enough for two PIDX
  // blocks: the fold's delta dirties both, so the first rebuilt region is
  // staged while the second remains (recompact.mid_pidx).
  c.keys_per_keyspace = 240;
  return c;
}

std::string Describe(const CrashSweepReport& report) {
  std::string out = "crash_point=" + report.crash_point;
  for (const std::string& v : report.violations) out += "\n  " + v;
  return out;
}

TEST(CrashSweepTest, DryRunEnumeratesPointsAndRecoversCleanShutdown) {
  auto report = RunCrashSweepCase(SweepConfig(), 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->fired);
  EXPECT_GT(report->hits, 4u);  // flush, sync, meta, and compact points
  EXPECT_GT(report->recovery_ticks, 0u);
  EXPECT_TRUE(report->ok()) << Describe(*report);
  // The workload's compaction and its fold both pass the commit points
  // they share (Device::Commit), so the sweep crashes on either side of
  // each commit.
  for (const char* point : {"compact.before_commit", "compact.after_commit",
                            "recompact.before_commit",
                            "recompact.after_commit"}) {
    const auto passed = report->passes.find(point);
    EXPECT_TRUE(passed != report->passes.end() && passed->second > 0)
        << "dry run never passed " << point;
  }
}

// Crashes `config`'s workload at every reachable crash-point pass and
// returns the points that fired.
std::set<std::string> SweepEveryPoint(const CrashSweepConfig& config) {
  const auto dry = RunCrashSweepCase(config, 0);
  EXPECT_TRUE(dry.ok()) << dry.status().ToString();
  if (!dry.ok()) return {};
  const std::uint64_t hits = dry->hits;
  EXPECT_GT(hits, 0u);

  std::set<std::string> points_seen;
  for (std::uint64_t k = 1; k <= hits; ++k) {
    auto report = RunCrashSweepCase(config, k);
    EXPECT_TRUE(report.ok())
        << "case " << k << ": " << report.status().ToString();
    if (!report.ok()) continue;
    EXPECT_TRUE(report->fired) << "case " << k << " never crashed";
    EXPECT_TRUE(report->ok())
        << "case " << k << ": " << Describe(*report);
    points_seen.insert(report->crash_point);
  }
  return points_seen;
}

TEST(CrashSweepTest, EveryReachableCrashPointRecovers) {
  const std::set<std::string> points_seen = SweepEveryPoint(SweepConfig());

  // The post-compaction mutation leg must walk the sweep through the
  // incremental re-compaction commit protocol.
  EXPECT_TRUE(points_seen.count("recompact.before_fold"))
      << "sweep never crashed at recompact.before_fold";
  EXPECT_TRUE(points_seen.count("recompact.mid_pidx"))
      << "sweep never crashed at recompact.mid_pidx";
  EXPECT_TRUE(points_seen.count("recompact.before_commit"))
      << "sweep never crashed at recompact.before_commit";
  EXPECT_TRUE(points_seen.count("recompact.after_commit"))
      << "sweep never crashed at recompact.after_commit";
}

// The same sweep with a 4 KiB sort budget: the default budget keeps the
// sweep's key logs in DRAM, this one spills every compaction's key runs,
// so a crash inside a compaction leaves TEMP clusters for recovery to
// reclaim.
CrashSweepConfig SpilledRunsConfig() {
  CrashSweepConfig c = SweepConfig();
  c.sort_run_bytes = KiB(4);
  return c;
}

TEST(CrashSweepTest, EveryReachableCrashPointRecoversWithSpilledRuns) {
  const auto resident = RunCrashSweepCase(SweepConfig(), 0);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_EQ(resident->temp_bytes_written, 0u);
  const auto spilled = RunCrashSweepCase(SpilledRunsConfig(), 0);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(spilled->temp_bytes_written, 0u);

  const std::set<std::string> points_seen =
      SweepEveryPoint(SpilledRunsConfig());
  EXPECT_TRUE(points_seen.count("compact.after_phase1"))
      << "sweep never crashed at compact.after_phase1";
  EXPECT_TRUE(points_seen.count("recompact.after_commit"))
      << "sweep never crashed at recompact.after_commit";
}

// Tiny zones make the 4 KiB metadata zone wrap mid-workload, which is
// the only way a sweep reaches the ping-pong crash points
// (meta.before_reset / meta.after_reset). More keyspaces fatten each
// snapshot and add persists (creates, syncs, compaction commits): ten
// wrap the zone pair three times, so a smaller snapshot or one persist
// fewer still leaves two wraps. More zones keep the pool big enough that
// post-crash verification can still compact all of them.
CrashSweepConfig TinyZoneConfig() {
  CrashSweepConfig c;
  c.keyspaces = 10;
  c.keys_per_keyspace = 16;
  c.zone_bytes = KiB(4);
  c.num_zones = 160;
  c.write_buffer_bytes = KiB(1);
  return c;
}

TEST(CrashSweepTest, TinyZoneSweepCoversMetadataPingPong) {
  const auto dry = RunCrashSweepCase(TinyZoneConfig(), 0);
  ASSERT_TRUE(dry.ok()) << dry.status().ToString();
  ASSERT_TRUE(dry->ok()) << Describe(*dry);

  std::map<std::string, std::uint64_t> crashes;  // cases per crash point
  for (std::uint64_t k = 1; k <= dry->hits; ++k) {
    auto report = RunCrashSweepCase(TinyZoneConfig(), k);
    ASSERT_TRUE(report.ok())
        << "case " << k << ": " << report.status().ToString();
    EXPECT_TRUE(report->fired) << "case " << k << " never crashed";
    EXPECT_TRUE(report->ok()) << "case " << k << ": " << Describe(*report);
    ++crashes[report->crash_point];
  }
  // At least two wraps: each ping-pong point is crashed at twice.
  EXPECT_GE(crashes["meta.before_reset"], 2u)
      << "sweep crashed at meta.before_reset fewer than twice";
  EXPECT_GE(crashes["meta.after_reset"], 2u)
      << "sweep crashed at meta.after_reset fewer than twice";
}

// Eight keyspaces on tiny zones: five compact at once, three of them then
// build a secondary index while two are dropped mid-compaction, so their
// commit, index and tombstone persists race through the metadata group
// commit while the 4 KiB metadata zones ping-pong underneath them.
CrashSweepConfig ConcurrentLegConfig() {
  CrashSweepConfig c = TinyZoneConfig();
  c.keyspaces = 8;
  c.num_zones = 256;
  c.concurrent_leg = true;
  return c;
}

TEST(CrashSweepTest, ConcurrentIndexLegCrossesPingPong) {
  const auto dry = RunCrashSweepCase(ConcurrentLegConfig(), 0);
  ASSERT_TRUE(dry.ok()) << dry.status().ToString();
  ASSERT_TRUE(dry->ok()) << Describe(*dry);

  std::set<std::string> points_seen;
  for (std::uint64_t k = 1; k <= dry->hits; ++k) {
    auto report = RunCrashSweepCase(ConcurrentLegConfig(), k);
    ASSERT_TRUE(report.ok())
        << "case " << k << ": " << report.status().ToString();
    EXPECT_TRUE(report->fired) << "case " << k << " never crashed";
    EXPECT_TRUE(report->ok()) << "case " << k << ": " << Describe(*report);
    points_seen.insert(report->crash_point);
  }
  EXPECT_TRUE(points_seen.count("meta.before_reset"))
      << "sweep never crashed at meta.before_reset";
  EXPECT_TRUE(points_seen.count("meta.after_reset"))
      << "sweep never crashed at meta.after_reset";
  EXPECT_TRUE(points_seen.count("compact.before_commit"))
      << "sweep never crashed at compact.before_commit";
}

}  // namespace
}  // namespace kvcsd::harness
