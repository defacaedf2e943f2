// Fault injection at the ZNS layer: injected I/O errors, the power-off
// gate, torn-tail truncation, and the Restart handoff (CloneStateFrom).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../testutil.h"
#include "sim/fault.h"
#include "storage/zns.h"

namespace kvcsd::storage {
namespace {

ZnsConfig FaultyZns(sim::FaultInjector* faults) {
  ZnsConfig c;
  c.nand.channels = 4;
  c.zone_size = KiB(64);
  c.num_zones = 16;
  c.faults = faults;
  return c;
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
}

std::string ReadZone(sim::Simulation& sim, ZnsSsd& ssd, std::uint32_t zone) {
  std::string out(ssd.write_pointer(zone), '\0');
  if (out.empty()) return out;
  auto status = testutil::RunSim(
      sim, ssd.Read(static_cast<std::uint64_t>(zone) * ssd.zone_size(),
                    std::span<std::byte>(
                        reinterpret_cast<std::byte*>(out.data()),
                        out.size())));
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(ZnsFaultTest, InjectedAppendErrorLeavesZoneUntouched) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));

  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kAppend;
  rule.zone = 3;
  faults.AddErrorRule(rule);

  auto bad = testutil::RunSim(sim, ssd.Append(3, AsBytes("doomed")));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_EQ(ssd.write_pointer(3), 0u);  // failed append wrote nothing
  EXPECT_EQ(ssd.zone_state(3), ZoneState::kEmpty);

  // The rule's budget (times = 1) is spent; the retry lands.
  auto good = testutil::RunSim(sim, ssd.Append(3, AsBytes("doomed")));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(ReadZone(sim, ssd, 3), "doomed");
}

// ResetZones never fails as a whole: each zone's reset status comes back
// in its own slot, and a failed reset leaves only its own zone written.
TEST(ZnsFaultTest, ResetZonesReportsEachZonesStatus) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));
  for (std::uint32_t zone : {1u, 2u, 3u}) {
    ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(zone, AsBytes("data"))).ok());
  }

  sim::ErrorRule rule;
  rule.op = sim::FaultOp::kReset;
  rule.zone = 2;
  faults.AddErrorRule(rule);

  const std::vector<Status> results =
      testutil::RunSim(sim, ssd.ResetZones({1, 2, 3}));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].code(), StatusCode::kIoError);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(ssd.write_pointer(1), 0u);
  EXPECT_EQ(ReadZone(sim, ssd, 2), "data");
  EXPECT_EQ(ssd.write_pointer(3), 0u);
}

TEST(ZnsFaultTest, PowerOffFailsAllOperationsButKeepsBytes) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));
  faults.set_torn_tail_keep(-1.0);  // no tearing in this test

  ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(1, AsBytes("survivor"))).ok());
  faults.Crash();

  EXPECT_FALSE(testutil::RunSim(sim, ssd.Append(1, AsBytes("x"))).ok());
  std::string out(8, '\0');
  EXPECT_FALSE(testutil::RunSim(
                   sim, ssd.Read(1 * KiB(64),
                                 std::span<std::byte>(
                                     reinterpret_cast<std::byte*>(out.data()),
                                     out.size())))
                   .ok());
  EXPECT_FALSE(testutil::RunSim(sim, ssd.Reset(1)).ok());

  // The medium itself survived: after the restart reset, bytes read back.
  faults.ResetForRestart();
  EXPECT_EQ(ReadZone(sim, ssd, 1), "survivor");
}

TEST(ZnsFaultTest, CrashTearsTheInflightAppend) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));
  faults.set_torn_tail_keep(0.5);

  ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(0, AsBytes("stable-"))).ok());
  ASSERT_TRUE(
      testutil::RunSim(sim, ssd.Append(0, AsBytes("0123456789"))).ok());
  ASSERT_EQ(ssd.write_pointer(0), 17u);

  faults.Crash();  // the SSD's registered hook tears the last append
  faults.ResetForRestart();

  // Only the in-flight append is torn, never the stable prefix.
  EXPECT_EQ(ssd.write_pointer(0), 12u);
  EXPECT_EQ(ReadZone(sim, ssd, 0), "stable-01234");
}

TEST(ZnsFaultTest, TearAlwaysDropsAtLeastOneByte) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));
  faults.set_torn_tail_keep(0.999);  // rounds to "keep everything"...

  ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(0, AsBytes("ab"))).ok());
  faults.Crash();
  // ...but a fraction < 1 still drops at least one byte.
  EXPECT_EQ(ssd.write_pointer(0), 1u);
}

// A ZnsSsd destroyed while its injector lives on must deregister its
// torn-tail hook: a later Crash() would otherwise call into the freed
// object (ASan in CI turns a regression here into a hard failure).
TEST(ZnsFaultTest, DestroyedSsdDeregistersItsCrashHook) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  faults.set_torn_tail_keep(0.5);
  {
    ZnsSsd doomed(&sim, FaultyZns(&faults));
    ASSERT_TRUE(testutil::RunSim(sim, doomed.Append(0, AsBytes("gone"))).ok());
  }
  // A surviving SSD on the same injector still gets its tail torn.
  ZnsSsd survivor(&sim, FaultyZns(&faults));
  ASSERT_TRUE(
      testutil::RunSim(sim, survivor.Append(0, AsBytes("torn-here"))).ok());
  faults.Crash();
  EXPECT_TRUE(faults.crashed());
  EXPECT_LT(survivor.write_pointer(0), 9u);  // its own hook did fire
}

TEST(ZnsFaultTest, CloneStateFromAdoptsSurvivingMedium) {
  sim::Simulation sim;
  sim::FaultInjector faults;
  ZnsSsd ssd(&sim, FaultyZns(&faults));
  faults.set_torn_tail_keep(-1.0);

  ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(2, AsBytes("carried"))).ok());
  ASSERT_TRUE(testutil::RunSim(sim, ssd.Append(5, AsBytes("over"))).ok());
  ASSERT_TRUE(ssd.Finish(5).ok());
  faults.Crash();
  faults.ResetForRestart();

  ZnsSsd fresh(&sim, FaultyZns(&faults));
  fresh.CloneStateFrom(ssd);
  EXPECT_EQ(fresh.write_pointer(2), 7u);
  EXPECT_EQ(fresh.zone_state(2), ZoneState::kOpen);
  EXPECT_EQ(fresh.zone_state(5), ZoneState::kFull);
  EXPECT_EQ(ReadZone(sim, fresh, 2), "carried");
  // The clone is independently writable.
  ASSERT_TRUE(testutil::RunSim(sim, fresh.Append(2, AsBytes("!"))).ok());
  EXPECT_EQ(ReadZone(sim, fresh, 2), "carried!");
  EXPECT_EQ(ssd.write_pointer(2), 7u);  // the donor is untouched
}

}  // namespace
}  // namespace kvcsd::storage
