#include "nvme/queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "round_trip.h"
#include "nvme/skey.h"

namespace kvcsd::nvme {
namespace {

using testutil::RoundTrip;
using testutil::SubmitOne;

TEST(CommandTest, WireSizesCountPayloads) {
  Command cmd;
  cmd.opcode = Opcode::kKvStore;
  cmd.key = std::string(16, 'k');
  cmd.value = std::string(100, 'v');
  EXPECT_EQ(CommandWireSize(cmd), 64u + 16 + 100);

  Completion cpl;
  cpl.value = std::string(32, 'r');
  cpl.results.emplace_back(std::string(16, 'a'), std::string(48, 'b'));
  EXPECT_EQ(CompletionWireSize(cpl), 16u + 32 + 16 + 48);
}

// A one-queue set over `pcie`: the fixture the QueuePairTest cases run on.
QueueSetConfig OneQueue(const PcieConfig& pcie = {}) {
  QueueSetConfig config;
  config.pcie = pcie;
  return config;
}

TEST(QueuePairTest, SubmitReceivesDeviceReply) {
  sim::Simulation sim;
  QueueSet set(&sim, OneQueue());

  // Echo device: completes each command with its key as the value.
  sim.Spawn([](QueueSet* queue) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      auto incoming = co_await queue->NextCommand();
      Completion reply;
      reply.status = Status::Ok();
      reply.value = "echo:" + incoming.command.key;
      co_await queue->Complete(std::move(incoming), std::move(reply));
    }
  }(&set));

  std::vector<std::string> replies;
  sim.Spawn([](QueueSet* queue, std::vector<std::string>* out)
                -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvRetrieve;
      cmd.key = "k" + std::to_string(i);
      Completion reply = co_await RoundTrip(queue, std::move(cmd));
      out->push_back(reply.value);
    }
  }(&set, &replies));

  sim.Run();
  EXPECT_EQ(replies, (std::vector<std::string>{"echo:k0", "echo:k1"}));
  EXPECT_EQ(set.pair(0)->submitted(), 2u);
  EXPECT_EQ(set.pair(0)->completed(), 2u);
}

TEST(QueuePairTest, TransferTimeScalesWithPayload) {
  sim::Simulation sim;
  PcieConfig pcie;
  pcie.bytes_per_sec = 1e9;
  pcie.request_latency = Microseconds(10);
  pcie.completion_latency = Microseconds(10);
  QueueSet set(&sim, OneQueue(pcie));

  sim.Spawn([](QueueSet* queue) -> sim::Task<void> {
    auto incoming = co_await queue->NextCommand();
    // NOTE: named + std::move, never a prvalue temporary — see the
    // "GCC 12 pitfall" note in sim/task.h.
    Completion reply;
    co_await queue->Complete(std::move(incoming), std::move(reply));
  }(&set));

  Tick done = 0;
  sim.Spawn([](sim::Simulation* s, QueueSet* queue,
               Tick* out) -> sim::Task<void> {
    Command cmd;
    cmd.opcode = Opcode::kBulkStore;
    cmd.value = std::string(MiB(1), 'x');
    Completion reply = co_await RoundTrip(queue, std::move(cmd));
    EXPECT_TRUE(reply.status.ok());
    *out = s->Now();
  }(&sim, &set, &done));
  sim.Run();

  // >= 1 MiB at 1 GB/s plus both latencies.
  EXPECT_GE(done, TransferTicks(MiB(1), 1e9) + Microseconds(20));
  EXPECT_GT(set.host_to_device_bytes(), MiB(1));
  EXPECT_EQ(set.device_to_host_bytes(), 16u);  // bare CQE
}

TEST(QueuePairTest, ConcurrentSubmittersEachGetTheirReply) {
  sim::Simulation sim;
  QueueSet set(&sim, OneQueue());

  sim.Spawn([](QueueSet* queue) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      auto incoming = co_await queue->NextCommand();
      Completion reply;
      reply.value = incoming.command.key;
      co_await queue->Complete(std::move(incoming), std::move(reply));
    }
  }(&set));

  int correct = 0;
  for (int t = 0; t < 8; ++t) {
    sim.Spawn([](QueueSet* queue, int id, int* ok_count) -> sim::Task<void> {
      Command cmd;
      cmd.key = "key-" + std::to_string(id);
      Completion reply = co_await RoundTrip(queue, std::move(cmd));
      if (reply.value == "key-" + std::to_string(id)) ++*ok_count;
    }(&set, t, &correct));
  }
  sim.Run();
  EXPECT_EQ(correct, 8);
}

// Doorbell batching (DESIGN.md §11): a batch of K commands rings one
// doorbell, so the per-command request latency is paid once. K serial
// submits of one command pay it K times; the byte service time is
// identical.
TEST(QueuePairTest, BatchedSubmitAmortizesDoorbell) {
  sim::Simulation sim;
  PcieConfig pcie;
  pcie.bytes_per_sec = 1e9;
  pcie.request_latency = Microseconds(10);
  QueueSet serial_set(&sim, OneQueue(pcie));  // each set owns its own link
  QueueSet batch_set(&sim, OneQueue(pcie));
  CqRing ring(&sim);  // no device: nothing completes
  constexpr std::uint64_t kCommands = 8;

  Command probe;
  probe.opcode = Opcode::kKvStore;
  probe.key = std::string(16, 'k');
  probe.value = std::string(1024, 'v');
  const std::uint64_t wire = CommandWireSize(probe);

  Tick serial_done = 0;
  sim.Spawn([](sim::Simulation* s, QueuePair* qp, CqRing* cq,
               Tick* out) -> sim::Task<void> {
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      cmd.key = std::string(16, 'k');
      cmd.value = std::string(1024, 'v');
      (void)co_await SubmitOne(qp, std::move(cmd), cq);
    }
    *out = s->Now();
  }(&sim, serial_set.pair(0), &ring, &serial_done));

  Tick batch_done = 0;
  sim.Spawn([](sim::Simulation* s, QueuePair* qp, CqRing* cq,
               Tick* out) -> sim::Task<void> {
    std::vector<Command> cmds;
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      Command cmd;
      cmd.opcode = Opcode::kKvStore;
      cmd.key = std::string(16, 'k');
      cmd.value = std::string(1024, 'v');
      cmds.push_back(std::move(cmd));
    }
    (void)co_await qp->Submit(std::move(cmds), cq);
    *out = s->Now();
  }(&sim, batch_set.pair(0), &ring, &batch_done));

  sim.Run();

  // Serial: every submit pays request_latency + its own service time.
  EXPECT_EQ(serial_done,
            kCommands * (Microseconds(10) + TransferTicks(wire, 1e9)));
  // Batched: one doorbell, one back-to-back DMA of all K payloads.
  EXPECT_EQ(batch_done,
            Microseconds(10) + TransferTicks(kCommands * wire, 1e9));
  EXPECT_LT(batch_done, serial_done);
  EXPECT_GE(serial_done - batch_done, (kCommands - 1) * Microseconds(10));
  EXPECT_EQ(serial_set.sq_depth(), kCommands);
  EXPECT_EQ(batch_set.sq_depth(), kCommands);
}

TEST(QueueSetTest, RoundRobinAlternatesAcrossPairs) {
  sim::Simulation sim;
  QueueSetConfig cfg;
  cfg.num_queues = 2;
  QueueSet set(&sim, cfg);
  CqRing ring(&sim);

  for (std::uint32_t q = 0; q < 2; ++q) {
    sim.Spawn([](QueueSet* s, CqRing* cq,
                 std::uint32_t queue) -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        cmd.key = "q" + std::to_string(queue) + "-" + std::to_string(i);
        (void)co_await SubmitOne(s->pair(queue), std::move(cmd), cq);
      }
    }(&set, &ring, q));
  }

  std::vector<std::uint32_t> order;
  sim.Spawn([](sim::Simulation* s, QueueSet* qs,
               std::vector<std::uint32_t>* out) -> sim::Task<void> {
    // Let both submitters fill their SQs before the device starts popping.
    co_await s->Delay(Milliseconds(1));
    for (int i = 0; i < 6; ++i) {
      auto incoming = co_await qs->NextCommand();
      out->push_back(incoming.queue_id);
      Completion reply;
      co_await qs->Complete(std::move(incoming), std::move(reply));
    }
  }(&sim, &set, &order));

  sim.Run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(set.submitted(), 6u);
  EXPECT_EQ(set.completed(), 6u);
  EXPECT_EQ(set.sq_depth(), 0u);
}

TEST(QueueSetTest, DepthCapBlocksSubmittersUntilCompletionsFreeSlots) {
  // Without a device, the third submission blocks on the per-queue cap.
  {
    sim::Simulation sim;
    QueueSetConfig cfg;
    cfg.sq_depth_cap = 2;
    QueueSet set(&sim, cfg);
    CqRing ring(&sim);
    sim.Spawn([](QueueSet* s, CqRing* cq) -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        (void)co_await SubmitOne(s->pair(0), std::move(cmd), cq);
      }
    }(&set, &ring));
    sim.Run();
    EXPECT_EQ(set.submitted(), 2u);
  }
  // With a device completing commands, slots recycle and all finish.
  {
    sim::Simulation sim;
    QueueSetConfig cfg;
    cfg.sq_depth_cap = 2;
    QueueSet set(&sim, cfg);
    sim.Spawn([](QueueSet* s) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) {
        auto incoming = co_await s->NextCommand();
        Completion reply;
        co_await s->Complete(std::move(incoming), std::move(reply));
      }
    }(&set));
    CqRing ring(&sim);
    sim.Spawn([](QueueSet* s, CqRing* cq) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) {
        Command cmd;
        cmd.opcode = Opcode::kKvStore;
        (void)co_await SubmitOne(s->pair(0), std::move(cmd), cq);
      }
      for (int i = 0; i < 5; ++i) (void)co_await cq->Pop();
    }(&set, &ring));
    sim.Run();
    EXPECT_EQ(set.submitted(), 5u);
    EXPECT_EQ(set.completed(), 5u);
    EXPECT_EQ(set.inflight(), 0u);
  }
}

TEST(SkeyTest, TypedEncodersPreserveOrder) {
  EXPECT_LT(EncodeSecondaryF32(1.5f), EncodeSecondaryF32(2.5f));
  EXPECT_LT(EncodeSecondaryF32(-3.0f), EncodeSecondaryF32(-1.0f));
  EXPECT_LT(EncodeSecondaryF32(-1.0f), EncodeSecondaryF32(1.0f));
  EXPECT_LT(EncodeSecondaryI32(-5), EncodeSecondaryI32(7));
  EXPECT_LT(EncodeSecondaryU64(10), EncodeSecondaryU64(200));
  EXPECT_LT(EncodeSecondaryF64(-0.1), EncodeSecondaryF64(0.1));
}

TEST(SkeyTest, EncodeSecondaryKeyBytesDispatchesOnType) {
  SecondaryIndexSpec spec;
  spec.type = SecondaryKeyType::kF32;
  spec.value_length = 4;
  float f = 42.5f;
  std::string raw(reinterpret_cast<const char*>(&f), 4);
  auto encoded = EncodeSecondaryKeyBytes(Slice(raw), spec);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, EncodeSecondaryF32(42.5f));

  // Length mismatch rejected.
  spec.value_length = 8;
  auto bad = EncodeSecondaryKeyBytes(Slice(raw), spec);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kvcsd::nvme
