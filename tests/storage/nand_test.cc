#include "storage/nand.h"

#include <gtest/gtest.h>

#include <vector>

#include "../testutil.h"

namespace kvcsd::storage {
namespace {

NandConfig SmallNand() {
  NandConfig c;
  c.channels = 4;
  c.page_size = 4096;
  c.read_latency = Microseconds(70);
  c.program_latency = Microseconds(400);
  c.erase_latency = Milliseconds(3);
  c.channel_bytes_per_sec = 500e6;
  return c;
}

TEST(NandModelTest, ReadCostIsTransferPlusLatency) {
  sim::Simulation sim;
  NandModel nand(&sim, SmallNand());
  testutil::RunSim(sim, nand.Read(0, 4096));
  // 4096 B at 500 MB/s = 8192 ns, plus 70 us array latency.
  EXPECT_EQ(sim.Now(), 8192u + Microseconds(70));
}

TEST(NandModelTest, SubPageReadsRoundUpToPage) {
  sim::Simulation sim;
  NandModel nand(&sim, SmallNand());
  testutil::RunSim(sim, nand.Read(1, 100));
  EXPECT_EQ(nand.bytes_read(), 4096u);
}

TEST(NandModelTest, ChannelsAreIndependent) {
  // Two programs on different channels overlap; on the same channel they
  // serialize on the transfer (latency pipelines).
  const std::uint64_t bytes = MiB(1);
  const Tick service = TransferTicks(bytes, 500e6);

  sim::Simulation sim_parallel;
  {
    NandModel nand(&sim_parallel, SmallNand());
    sim::WaitGroup wg(&sim_parallel);
    wg.Add(2);
    auto op = [](NandModel* n, sim::WaitGroup* g, std::uint32_t ch,
                 std::uint64_t b) -> sim::Task<void> {
      co_await n->Program(ch, b);
      g->Done();
    };
    sim_parallel.Spawn(op(&nand, &wg, 0, bytes));
    sim_parallel.Spawn(op(&nand, &wg, 1, bytes));
    sim_parallel.Run();
    EXPECT_EQ(sim_parallel.Now(), service + Microseconds(400));
  }

  sim::Simulation sim_serial;
  {
    NandModel nand(&sim_serial, SmallNand());
    sim::WaitGroup wg(&sim_serial);
    wg.Add(2);
    auto op = [](NandModel* n, sim::WaitGroup* g, std::uint32_t ch,
                 std::uint64_t b) -> sim::Task<void> {
      co_await n->Program(ch, b);
      g->Done();
    };
    sim_serial.Spawn(op(&nand, &wg, 2, bytes));
    sim_serial.Spawn(op(&nand, &wg, 2, bytes));
    sim_serial.Run();
    EXPECT_EQ(sim_serial.Now(), 2 * service + Microseconds(400));
  }
}

TEST(NandModelTest, EraseChargesEraseLatency) {
  sim::Simulation sim;
  NandModel nand(&sim, SmallNand());
  testutil::RunSim(sim, nand.Erase(3));
  EXPECT_EQ(sim.Now(), Milliseconds(3));
  EXPECT_EQ(nand.erases(), 1u);
}

TEST(NandModelTest, EraseWaitsOffTheChannel) {
  // Two erases on one channel overlap, and a read issued on that channel
  // mid-erase pays only its normal transfer + array latency.
  sim::Simulation sim;
  NandModel nand(&sim, SmallNand());
  sim::WaitGroup wg(&sim);
  std::vector<Tick> erase_done;
  Tick read_start = 0;
  Tick read_done = 0;
  auto erase = [](NandModel* n, sim::Simulation* s, sim::WaitGroup* g,
                  std::vector<Tick>* done) -> sim::Task<void> {
    co_await n->Erase(2);
    done->push_back(s->Now());
    g->Done();
  };
  auto read = [](NandModel* n, sim::Simulation* s, sim::WaitGroup* g,
                 Tick* start, Tick* done) -> sim::Task<void> {
    co_await s->Delay(Milliseconds(1));
    *start = s->Now();
    co_await n->Read(2, 4096);
    *done = s->Now();
    g->Done();
  };
  wg.Add(3);
  sim.Spawn(erase(&nand, &sim, &wg, &erase_done));
  sim.Spawn(erase(&nand, &sim, &wg, &erase_done));
  sim.Spawn(read(&nand, &sim, &wg, &read_start, &read_done));
  sim.Run();
  EXPECT_EQ(erase_done, (std::vector<Tick>{Milliseconds(3), Milliseconds(3)}));
  EXPECT_EQ(read_start, Milliseconds(1));
  EXPECT_EQ(read_done - read_start, 8192u + Microseconds(70));
  EXPECT_EQ(nand.erases(), 2u);
}

TEST(NandModelTest, TrafficCountersAccumulate) {
  sim::Simulation sim;
  NandModel nand(&sim, SmallNand());
  testutil::RunSim(sim, [](NandModel* n) -> sim::Task<void> {
    co_await n->Program(0, 10000);  // rounds to 12288
    co_await n->Read(0, 5000);      // rounds to 8192
  }(&nand));
  EXPECT_EQ(nand.bytes_written(), 12288u);
  EXPECT_EQ(nand.bytes_read(), 8192u);
}

}  // namespace
}  // namespace kvcsd::storage
