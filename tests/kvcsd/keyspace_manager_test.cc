#include "kvcsd/keyspace_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../testutil.h"
#include "common/bloom.h"
#include "common/coding.h"
#include "common/keys.h"

namespace kvcsd::device {
namespace {

storage::ZnsConfig SmallZns() {
  storage::ZnsConfig c;
  c.zone_size = KiB(64);
  c.num_zones = 8;
  return c;
}

// Bytes one Persist() appends to the metadata zones (no ping-pong may
// happen in between: the zone's write pointer grows by exactly one
// snapshot).
std::uint64_t SnapshotBytes(sim::Simulation& sim, storage::ZnsSsd& ssd,
                            KeyspaceManager& km) {
  const std::uint32_t zone = km.current_meta_zone();
  const std::uint64_t before = ssd.write_pointer(zone);
  EXPECT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  EXPECT_EQ(km.current_meta_zone(), zone) << "snapshot switched zones";
  return ssd.write_pointer(zone) - before;
}

// Makes `ks` a COMPACTED keyspace over `keys` keys with the sketch and
// bloom filter a real compaction would build (one sketch entry per 4 KiB
// PIDX block of 16 B keys), stored out of line like the compactor does.
void CompactSynthetic(sim::Simulation& sim, KeyspaceManager& km, Keyspace* ks,
                      std::uint64_t keys) {
  constexpr std::uint64_t kKeysPerBlock = 4096 / (16 + 12);
  BloomFilterBuilder bloom(10);
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::string key = MakeFixedKey(i);
    bloom.AddKey(Slice(key));
    if (i % kKeysPerBlock == 0) {
      ks->pidx_sketch.push_back(
          SketchEntry{key, KiB(4) * (i / kKeysPerBlock), 4096});
    }
  }
  ks->pidx_bloom = bloom.Finish();
  ks->state = KeyspaceState::kCompacted;
  ks->run_entries = keys;
  auto blob = testutil::RunSim(
      sim, km.WritePidxBlob(ks->pidx_sketch, ks->pidx_bloom,
                            sim::Activity::kCompact));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ks->pidx_blob = *blob;
}

TEST(KeyspaceManagerTest, CreateFindErase) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);

  auto ks = km.Create("particles");
  ASSERT_TRUE(ks.ok());
  EXPECT_EQ((*ks)->state, KeyspaceState::kEmpty);
  EXPECT_EQ((*ks)->name, "particles");
  EXPECT_EQ(km.Create("particles").status().code(),
            StatusCode::kAlreadyExists);

  auto found = km.Find("particles");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ks);
  EXPECT_TRUE(km.FindById((*ks)->id).ok());
  EXPECT_EQ(km.Find("nope").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(km.Erase((*ks)->id).ok());
  EXPECT_EQ(km.Find("particles").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(km.size(), 0u);
}

// A name becomes a field of the device.ks.<name>.* series: a '.', a
// control character or an over-long name is rejected, leaving no entry.
TEST(KeyspaceManagerTest, CreateRejectsNamesThatCannotBeSeriesFields) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  const std::string longest(KeyspaceManager::kMaxNameBytes, 'n');
  for (const std::string& name :
       {std::string("a.b"), std::string("."), std::string("tab\tname"),
        std::string("new\nline"), std::string("nul\0x", 5),
        std::string("del\x7f"), longest + "n"}) {
    EXPECT_EQ(km.Create(name).status().code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(km.Find(name).status().code(), StatusCode::kNotFound) << name;
  }
  EXPECT_EQ(km.size(), 0u);
  // The bound itself and bytes past ASCII are fine.
  EXPECT_TRUE(km.Create(longest).ok());
  EXPECT_TRUE(km.Create("caf\xc3\xa9-ks_1").ok());
  EXPECT_EQ(km.size(), 2u);
}

TEST(KeyspaceManagerTest, IdsAreUniqueAcrossNames) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  auto a = km.Create("a").value();
  auto b = km.Create("b").value();
  EXPECT_NE(a->id, b->id);
  // Keys may repeat across keyspaces without conflict: the manager only
  // namespaces by keyspace, which is the paper's point.
}

TEST(KeyspaceManagerTest, PersistAndRecoverFullState) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  {
    // The sketches live in blobs, which need a zone manager to allocate.
    ZoneManager zones(&ssd, ZoneManagerConfig{});
    KeyspaceManager km(&ssd, &zones);
    Keyspace* ks = km.Create("sim_dump").value();
    ks->state = KeyspaceState::kCompacted;
    ks->run_entries = 12345;
    ks->pidx_clusters = {7, 9};
    ks->sorted_value_clusters = {11};
    // Block and value addresses both move backwards at the second entry,
    // as a fold's retained and rebuilt blocks can.
    ks->pidx_sketch.push_back(
        SketchEntry{"aaa", GiB(3), 4096, {{GiB(2), GiB(2) + 5000}}});
    ks->pidx_sketch.push_back(SketchEntry{"mmm", 8192, 4096, {{4096, 9000}}});
    SecondaryIndex sidx;
    sidx.spec.name = "energy";
    sidx.spec.value_offset = 28;
    sidx.spec.value_length = 4;
    sidx.spec.type = nvme::SecondaryKeyType::kF32;
    sidx.sidx_clusters = {13};
    sidx.sketch.push_back(SketchEntry{"\x80\x00\x00\x01", 12288, 4096});
    sidx.entries = 12345;
    ks->pidx_bloom = "bloom-bits";
    auto pidx_blob = testutil::RunSim(
        sim, km.WritePidxBlob(ks->pidx_sketch, ks->pidx_bloom,
                              sim::Activity::kCompact));
    ASSERT_TRUE(pidx_blob.ok()) << pidx_blob.status().ToString();
    ks->pidx_blob = *pidx_blob;
    auto sidx_blob = testutil::RunSim(
        sim, km.WriteSidxBlob(sidx.sketch, sim::Activity::kCompact));
    ASSERT_TRUE(sidx_blob.ok()) << sidx_blob.status().ToString();
    sidx.sketch_blob = *sidx_blob;
    ks->secondary_indexes["energy"] = sidx;
    ks->pending_delete = true;  // deferred-drop tombstone round-trips
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  }
  // Power cycle: a fresh manager over the same SSD recovers everything.
  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  Keyspace* ks = recovered.Find("sim_dump").value();
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->run_entries, 12345u);
  EXPECT_EQ(ks->NumKvs(), 12345u);
  EXPECT_TRUE(ks->pending_delete);
  EXPECT_EQ(ks->pidx_clusters, (std::vector<ClusterId>{7, 9}));
  ASSERT_EQ(ks->pidx_sketch.size(), 2u);
  EXPECT_EQ(ks->pidx_sketch[0].pivot, "aaa");
  EXPECT_EQ(ks->pidx_sketch[0].block_addr, GiB(3));
  EXPECT_EQ(ks->pidx_sketch[0].spans,
            (std::vector<wire::ValueSpan>{{GiB(2), GiB(2) + 5000}}));
  EXPECT_EQ(ks->pidx_sketch[1].pivot, "mmm");
  EXPECT_EQ(ks->pidx_sketch[1].block_addr, 8192u);
  EXPECT_EQ(ks->pidx_sketch[1].block_len, 4096u);
  EXPECT_EQ(ks->pidx_sketch[1].spans,
            (std::vector<wire::ValueSpan>{{4096, 9000}}));
  EXPECT_EQ(ks->pidx_bloom, "bloom-bits");
  ASSERT_TRUE(ks->secondary_indexes.contains("energy"));
  const SecondaryIndex& sidx = ks->secondary_indexes.at("energy");
  EXPECT_EQ(sidx.spec.value_offset, 28u);
  EXPECT_EQ(sidx.spec.type, nvme::SecondaryKeyType::kF32);
  EXPECT_EQ(sidx.entries, 12345u);
  ASSERT_EQ(sidx.sketch.size(), 1u);
  EXPECT_EQ(sidx.sketch[0].block_addr, 12288u);
  EXPECT_TRUE(sidx.sketch[0].spans.empty());
}

// The sketch encoding round-trips entries with no span (SIDX), one, and
// three spans in different zones, addresses moving backwards between
// entries included; every strict prefix of the encoding is rejected, a
// span list cut short among them.
TEST(KeyspaceManagerTest, SketchSpansRoundTrip) {
  const std::vector<SketchEntry> sketch = {
      SketchEntry{"a", KiB(8), 4096, {}},
      SketchEntry{"b", KiB(12), 4096, {{MiB(3) + 100, MiB(3) + 4000}}},
      SketchEntry{"c",
                  KiB(4),
                  4096,
                  {{MiB(1), MiB(1) + 700},
                   {MiB(2) + 5, MiB(2) + 9000},
                   {GiB(5), GiB(5) + 1}}},
      SketchEntry{"d", KiB(16), 4096, {{MiB(1) + 800, MiB(1) + 900}}},
  };
  std::string encoded;
  PutSketch(&encoded, sketch);
  Slice in(encoded);
  std::vector<SketchEntry> decoded;
  ASSERT_TRUE(GetSketch(&in, &decoded));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.size(), sketch.size());
  for (std::size_t i = 0; i < sketch.size(); ++i) {
    EXPECT_EQ(decoded[i].pivot, sketch[i].pivot);
    EXPECT_EQ(decoded[i].block_addr, sketch[i].block_addr);
    EXPECT_EQ(decoded[i].block_len, sketch[i].block_len);
    EXPECT_EQ(decoded[i].spans, sketch[i].spans) << "entry " << i;
  }
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Slice cut(encoded.data(), len);
    std::vector<SketchEntry> partial;
    EXPECT_FALSE(GetSketch(&cut, &partial)) << "prefix of " << len << " B";
  }
  // A span count past the bytes left is corrupt, not an allocation size.
  std::string huge;
  PutVarint64(&huge, 1);
  PutLengthPrefixedSlice(&huge, Slice("p"));
  PutVarint64(&huge, 0);
  PutVarint32(&huge, 4096);
  PutVarint64(&huge, std::uint64_t{1} << 40);
  Slice huge_in(huge);
  std::vector<SketchEntry> rejected;
  EXPECT_FALSE(GetSketch(&huge_in, &rejected));
}

// The snapshot holds a fixed-size reference to each index's blob, so its
// size does not depend on how many keys the keyspace holds.
TEST(KeyspaceManagerTest, SnapshotBytesDoNotGrowWithKeyCount) {
  auto snapshot_bytes = [](std::uint64_t keys) {
    sim::Simulation sim;
    storage::ZnsConfig zns;
    zns.zone_size = MiB(1);
    zns.num_zones = 16;
    storage::ZnsSsd ssd(&sim, zns);
    ZoneManager zones(&ssd, ZoneManagerConfig{});
    KeyspaceManager km(&ssd, &zones);
    Keyspace* ks = km.Create("particles").value();
    CompactSynthetic(sim, km, ks, keys);
    return SnapshotBytes(sim, ssd, km);
  };
  const std::uint64_t small = snapshot_bytes(1000);
  const std::uint64_t large = snapshot_bytes(200000);
  EXPECT_LT(small, KiB(1));
  EXPECT_LT(large > small ? large - small : small - large, KiB(1))
      << "1k keys: " << small << " B, 200k keys: " << large << " B";
}

// ... and grows linearly with the number of keyspaces.
TEST(KeyspaceManagerTest, SnapshotBytesGrowLinearlyWithKeyspaces) {
  auto snapshot_bytes = [](std::uint32_t keyspaces) {
    sim::Simulation sim;
    storage::ZnsConfig zns;
    zns.zone_size = KiB(64);
    zns.num_zones = 80;
    storage::ZnsSsd ssd(&sim, zns);
    ZoneManager zones(&ssd, ZoneManagerConfig{});
    KeyspaceManager km(&ssd, &zones);
    for (std::uint32_t i = 0; i < keyspaces; ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "ks%02u", i);
      CompactSynthetic(sim, km, km.Create(name).value(), 1000);
    }
    return SnapshotBytes(sim, ssd, km);
  };
  const std::uint64_t one = snapshot_bytes(1);
  const std::uint64_t all = snapshot_bytes(64);
  const double per_keyspace = static_cast<double>(all - one) / 63;
  EXPECT_LT(per_keyspace, 128.0);  // no per-key payload left
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    const double predicted = static_cast<double>(one) + (n - 1) * per_keyspace;
    // Slack: cluster ids and blob addresses are varints whose width
    // steps up as the device fills.
    EXPECT_NEAR(static_cast<double>(snapshot_bytes(n)), predicted, 2.0 * n)
        << n << " keyspaces";
  }
}

// Two Persists racing across a ping-pong switch: the first resets the
// sibling zone and writes there; the second must wait for it and append
// behind it, not reset the sibling a second time (which could wipe the
// first snapshot, or land both in one zone). Recovery then sees the newer
// table.
TEST(KeyspaceManagerTest, ConcurrentPersistsAcrossPingPongResetOnce) {
  sim::Simulation sim;
  storage::ZnsConfig zns = SmallZns();
  zns.zone_size = KiB(4);
  storage::ZnsSsd ssd(&sim, zns);
  KeyspaceManager km(&ssd);
  (void)km.Create("first").value();
  // Fill metadata zone A until the next snapshot no longer fits in it.
  const std::uint64_t size = SnapshotBytes(sim, ssd, km);
  while (ssd.write_pointer(km.current_meta_zone()) + size <= zns.zone_size) {
    ASSERT_EQ(SnapshotBytes(sim, ssd, km), size);
  }
  const std::uint32_t full_zone = km.current_meta_zone();
  const std::uint64_t resets_before = ssd.total_resets();

  Status first, second;
  sim.Spawn([](KeyspaceManager* m, Status* out) -> sim::Task<void> {
    *out = co_await m->Persist();
  }(&km, &first));
  // Runs while the first Persist is suspended in the sibling's reset.
  sim.Spawn([](KeyspaceManager* m, Status* out) -> sim::Task<void> {
    (void)m->Create("late").value();
    *out = co_await m->Persist();
  }(&km, &second));
  sim.Run();
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(ssd.total_resets() - resets_before, 1u);
  EXPECT_NE(km.current_meta_zone(), full_zone);

  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);
  EXPECT_TRUE(recovered.Find("late").ok());
  EXPECT_EQ(recovered.persist_seq(), km.persist_seq());
}

TEST(KeyspaceManagerTest, LatestSnapshotWins) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  (void)km.Create("v1").value();
  ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  (void)km.Create("v2").value();
  ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());

  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  EXPECT_TRUE(recovered.Find("v1").ok());
  EXPECT_TRUE(recovered.Find("v2").ok());
}

TEST(KeyspaceManagerTest, MetadataZoneRollsOverWhenFull) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  // Big names make snapshots chunky; persist until well past one 64 KiB
  // zone's worth of snapshots.
  for (int i = 0; i < 64; ++i) {
    (void)km.Create("keyspace-with-a-rather-long-name-" +
                    std::to_string(i))
        .value();
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok()) << i;
  }
  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 64u);
}

TEST(KeyspaceManagerTest, RecoverOnBlankDeviceIsEmpty) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  auto count = testutil::RunSim(sim, km.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(KeyspaceManagerTest, IdCounterSurvivesRecovery) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  std::uint64_t first_id;
  {
    KeyspaceManager km(&ssd);
    first_id = km.Create("one").value()->id;
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  }
  KeyspaceManager recovered(&ssd);
  ASSERT_TRUE(testutil::RunSim(sim, recovered.Recover()).ok());
  auto next = recovered.Create("two").value();
  EXPECT_GT(next->id, first_id);
}

}  // namespace
}  // namespace kvcsd::device
