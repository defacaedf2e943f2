// The per-command latency ledger end to end (DESIGN.md §9): every
// command's layers add up exactly to the round trip the client measures,
// and the commands of a serial run leave nothing unbooked: `other` stays
// 0 whenever every wait on the command's path is booked by the resource
// or the join that caused it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "csd_testbed.h"
#include "device_test_peer.h"
#include "kvcsd/device.h"
#include "sim/ledger.h"

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

// 28 pad bytes, then the f32 energy `i` at byte 28.
std::string EnergyValue(std::uint64_t i) {
  std::string v(28, 'p');
  const float energy = static_cast<float>(i);
  char raw[4];
  std::memcpy(raw, &energy, 4);
  v.append(raw, 4);
  return v;
}

sim::Task<void> LoadCompacted(client::Client* db, std::string name,
                              std::uint64_t count, std::size_t value_bytes) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string value = EnergyValue(i);
    value.resize(std::max(value.size(), value_bytes), 'v');
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), value));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Drain());
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
}

const sim::Histogram& Series(harness::CsdTestbed& f, const std::string& op,
                             const std::string& layer) {
  return f.sim().stats().histogram("client.cmd." + op + "." + layer + "_ns");
}

// Exactly one `op` command completed since the last stats reset, its
// layers summed to `round_trip` (when given) and it booked no `other`.
void ExpectOneCommandFullyBooked(harness::CsdTestbed& f, const std::string& op,
                                 Tick round_trip = 0) {
  Tick sum = 0;
  for (std::size_t i = 0; i < sim::kLayerCount; ++i) {
    const sim::Histogram& h =
        Series(f, op, sim::LayerName(static_cast<sim::Layer>(i)));
    ASSERT_EQ(h.count(), 1u) << op;
    sum += h.sum();
  }
  EXPECT_EQ(Series(f, op, "other").max(), 0u) << op;
  EXPECT_GT(Series(f, op, "dispatch").max(), 0u) << op;
  EXPECT_GT(Series(f, op, "pcie_d2h").max(), 0u) << op;
  if (round_trip != 0) {
    EXPECT_EQ(sum, round_trip) << op;
  }
}

// Commands of several clients on their own queues, several callers each,
// overlap on the host, the link, the SQs and the device. Every command's
// layers add up to the round trip its caller measured, and a GET over a
// compacted keyspace, on whatever path, leaves nothing unbooked.
TEST(LedgerTest, ConcurrentClientsLedgersSumToRoundTrip) {
  harness::TestbedConfig config = testutil::Bed(SmallDevice());
  config.queues.num_queues = 2;
  harness::CsdTestbed f(config);
  constexpr std::uint64_t kKeys = 2000;
  testutil::RunSim(f.sim(), LoadCompacted(&f.client(), "read", kKeys, 0));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await db->CreateKeyspace("write"));
  }(&f.client()));
  DeviceTestPeer::ClearIndexCache(&f.dev());

  std::vector<std::unique_ptr<client::Client>> clients;
  for (std::uint32_t q = 0; q < 2; ++q) {
    client::ClientConfig cc;
    cc.queue_id = q;
    cc.max_inflight = 4;
    clients.push_back(std::make_unique<client::Client>(
        &f.queue(), &f.host_cpu(), hostenv::CostModel::Host(), cc));
  }
  std::uint64_t checked = 0;
  std::uint64_t gets = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t t = 0; t < 3; ++t) {
      f.sim().Spawn([](sim::Simulation* sim, client::Client* db,
                       std::uint32_t id, std::uint64_t* checked_out,
                       std::uint64_t* gets_out) -> sim::Task<void> {
        auto reader = co_await db->OpenKeyspace("read");
        KVCSD_CO_ASSERT_OK(reader);
        auto writer = co_await db->OpenKeyspace("write");
        KVCSD_CO_ASSERT_OK(writer);
        for (std::uint64_t i = 0; i < 40; ++i) {
          const Tick start = sim->Now();
          if (i % 4 == 3) {
            auto put = co_await writer->PutAsync(
                MakeFixedKey(id * 1000 + i), "value");
            KVCSD_CO_ASSERT_OK(co_await put.Await());
            EXPECT_EQ(put.ledger().Sum(), sim->Now() - start);
          } else {
            // Present keys, absent keys and repeats of one hot block.
            const std::uint64_t key = (id * 131 + i * 37) % (kKeys + 200);
            auto get = co_await reader->GetAsync(MakeFixedKey(key));
            auto value = co_await get.Await();
            KVCSD_CO_ASSERT(value.ok() || value.status().IsNotFound());
            EXPECT_EQ(get.ledger().Sum(), sim->Now() - start);
            EXPECT_EQ(get.ledger()[sim::Layer::kOther], 0u) << key;
            EXPECT_GT(get.ledger()[sim::Layer::kSqWait] +
                          get.ledger()[sim::Layer::kDispatch],
                      0u);
            ++*gets_out;
          }
          ++*checked_out;
        }
      }(&f.sim(), clients[c].get(), c * 3 + t, &checked, &gets));
    }
  }
  f.sim().Run();
  EXPECT_EQ(checked, 6u * 40u);
  EXPECT_EQ(gets, 6u * 30u);
  // The callers queued behind each other somewhere on the way.
  EXPECT_GT(Series(f, "kv_retrieve", "nand").sum(), 0u);
  EXPECT_GT(Series(f, "kv_retrieve", "nand_wait").sum() +
                Series(f, "kv_retrieve", "sq_wait").sum() +
                Series(f, "kv_retrieve", "host_queue").sum(),
            0u);
}

// One cold GET of `key` through the client; returns its round trip.
Tick SerialGet(harness::CsdTestbed& f, std::string key) {
  DeviceTestPeer::ClearIndexCache(&f.dev());
  Tick round_trip = 0;
  testutil::RunSim(f.sim(), [](harness::CsdTestbed* fx, std::string k,
                               Tick* out) -> sim::Task<void> {
    auto ks = co_await fx->client().OpenKeyspace("ks");
    KVCSD_CO_ASSERT_OK(ks);
    fx->sim().stats().Reset();
    const Tick start = fx->sim().Now();
    auto got = co_await ks->Get(k);
    KVCSD_CO_ASSERT_OK(got);
    *out = fx->sim().Now() - start;
  }(&f, std::move(key), &round_trip));
  return round_trip;
}

// A cold GET whose value spans are read alongside its PIDX block: the
// block read is the GET's own, the span read a child's, and the join
// books the span read's tail past the block read.
TEST(LedgerTest, SerialColdGetWithSpanReadBooksEveryLayer) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), LoadCompacted(&f.client(), "ks", 2000, 0));
  const Tick round_trip = SerialGet(f, MakeFixedKey(777));
  EXPECT_EQ(f.sim().stats().counter_value("device.query.value_speculated"),
            1u);
  ExpectOneCommandFullyBooked(f, "kv_retrieve", round_trip);
  EXPECT_GT(Series(f, "kv_retrieve", "nand").max(), 0u);
  EXPECT_GT(Series(f, "kv_retrieve", "soc").max(), 0u);
  EXPECT_GT(Series(f, "kv_retrieve", "overlapped").max(), 0u);
  EXPECT_EQ(f.sim().stats().histogram("client.cmd.kv_retrieve.path.run_ns")
                .count(),
            1u);
}

// Values too large for the span read: the block read and then the value
// gather run one after the other, all on the GET's own ledger.
TEST(LedgerTest, SerialColdGetWithoutSpanReadBooksEveryLayer) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), LoadCompacted(&f.client(), "ks", 400, 2048));
  const Tick round_trip = SerialGet(f, MakeFixedKey(123));
  EXPECT_EQ(f.sim().stats().counter_value("device.query.value_speculated"),
            0u);
  ExpectOneCommandFullyBooked(f, "kv_retrieve", round_trip);
  EXPECT_GT(Series(f, "kv_retrieve", "nand").max(), 0u);
  EXPECT_EQ(f.sim().stats().histogram("client.cmd.kv_retrieve.path.run_ns")
                .count(),
            1u);
}

// Serial select and aggregate commands, on the primary plan and through
// the SIDX the planner picks, book every wait of their scans: the
// prefetched index blocks join the walk, the gather fan-out its caller.
TEST(LedgerTest, SerialPushdownBooksEveryLayer) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  constexpr std::uint64_t kKeys = 2000;
  testutil::RunSim(f.sim(), LoadCompacted(&f.client(), "plain", kKeys, 0));
  testutil::RunSim(f.sim(), LoadCompacted(&f.client(), "indexed", kKeys, 0));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("indexed");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndexF32("energy", 28));
  }(&f.client()));

  struct Case {
    const char* keyspace;
    bool aggregate;
    const char* path;
  };
  for (const Case& c : {Case{"plain", false, "primary"},
                        Case{"indexed", false, "sidx_planned"},
                        Case{"plain", true, "primary"},
                        Case{"indexed", true, "sidx_planned"}}) {
    DeviceTestPeer::ClearIndexCache(&f.dev());
    Tick round_trip = 0;
    testutil::RunSim(f.sim(), [](client::Client* db, sim::Simulation* sim,
                                 Case cs, Tick* out) -> sim::Task<void> {
      auto ks = co_await db->OpenKeyspace(cs.keyspace);
      KVCSD_CO_ASSERT_OK(ks);
      sim->stats().Reset();
      client::KeyspaceHandle::SelectOptions opts;
      opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 1990.0f);
      const Tick start = sim->Now();
      if (cs.aggregate) {
        nvme::AggregateSpec agg;
        agg.func = nvme::AggregateFunc::kCount;
        auto result = co_await ks->Aggregate("", "\x7f", agg, opts);
        KVCSD_CO_ASSERT_OK(result);
        KVCSD_CO_ASSERT(result->rows == 10);
      } else {
        std::vector<std::pair<std::string, std::string>> rows;
        KVCSD_CO_ASSERT_OK(co_await ks->Select("", "\x7f", opts, &rows));
        KVCSD_CO_ASSERT(rows.size() == 10);
      }
      *out = sim->Now() - start;
    }(&f.client(), &f.sim(), c, &round_trip));
    const std::string op = c.aggregate ? "kv_aggregate" : "kv_select";
    ExpectOneCommandFullyBooked(f, op, round_trip);
    EXPECT_GT(Series(f, op, "soc").max(), 0u) << op << " " << c.path;
    EXPECT_GT(Series(f, op, "nand").max(), 0u) << op << " " << c.path;
    EXPECT_EQ(f.sim()
                  .stats()
                  .histogram("client.cmd." + op + ".path." + c.path + "_ns")
                  .count(),
              1u)
        << op << " " << c.path;
  }
}

// kCompact starts the compaction and completes: the compaction runs as
// its own process, with no ledger, so none of its work lands in the
// command's layers.
TEST(LedgerTest, CompactionBooksNothingIntoItsTrigger) {
  harness::CsdTestbed f(testutil::Bed(SmallDevice()));
  testutil::RunSim(f.sim(), [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("ks");
    KVCSD_CO_ASSERT_OK(ks);
    auto writer = ks->NewBulkWriter();
    for (std::uint64_t i = 0; i < 4000; ++i) {
      KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(i), EnergyValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Drain());
  }(&f.client()));
  Tick round_trip = 0;
  Tick compacted = 0;
  testutil::RunSim(f.sim(), [](client::Client* db, sim::Simulation* sim,
                               Tick* trip, Tick* done) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("ks");
    KVCSD_CO_ASSERT_OK(ks);
    sim->stats().Reset();
    const Tick start = sim->Now();
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    *trip = sim->Now() - start;
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    *done = sim->Now() - start;
  }(&f.client(), &f.sim(), &round_trip, &compacted));
  ExpectOneCommandFullyBooked(f, "compact", round_trip);
  for (const char* layer :
       {"soc_wait", "soc", "nand_wait", "nand", "keyspace_wait",
        "overlapped"}) {
    EXPECT_EQ(Series(f, "compact", layer).max(), 0u) << layer;
  }
  // The compaction took far longer than its trigger, and the wait for it
  // is the keyspace's.
  EXPECT_GT(compacted, 10 * round_trip);
  EXPECT_GT(Series(f, "compact_wait", "keyspace_wait").max(), 0u);
}

}  // namespace
}  // namespace kvcsd::device
