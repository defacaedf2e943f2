#include "harness/workloads.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include "common/keys.h"
#include "common/random.h"
#include "sim/sync.h"

namespace kvcsd::harness {

namespace {

// Deterministic per-thread key stream: random 8 B ids widened to the
// paper micro benches' 16 B keys (duplicates across threads are possible
// and harmless, as with the paper's random workload).
std::string RandomKey(Rng& rng) { return MakeFixedKey(rng.Next()); }

std::string MakeValue(std::uint32_t value_bytes, std::uint64_t salt) {
  std::string value(value_bytes, 'v');
  for (std::size_t i = 0; i < value.size() && i < 8; ++i) {
    value[i] = static_cast<char>('a' + ((salt >> (i * 8)) & 0x0f));
  }
  return value;
}

void CountGetStatus(const Status& status, QueryOutcome* out) {
  if (status.IsNotFound()) {
    ++out->not_found;
  } else if (!status.ok()) {
    ++out->failed;
  }
}

// How often a shared-keyspace thread tries to open the keyspace thread 0
// creates, 50 us apart, before it gives up.
constexpr std::uint32_t kSharedOpenAttempts = 1000;

// The keyspace insert thread `thread` writes into: its own, or with a
// shared keyspace the one thread 0 creates and the others open.
sim::Task<Result<client::KeyspaceHandle>> InsertKeyspace(
    CsdTestbed* tb, const InsertSpec* s, std::uint32_t thread) {
  client::Client& db = tb->client();
  if (!s->shared_keyspace) {
    co_return co_await db.CreateKeyspace("ks" + std::to_string(thread));
  }
  if (thread == 0) co_return co_await db.CreateKeyspace("shared");
  for (std::uint32_t attempt = 1;; ++attempt) {
    auto opened = co_await db.OpenKeyspace("shared");
    if (opened.ok() || attempt == kSharedOpenAttempts) co_return opened;
    co_await tb->sim().Delay(Microseconds(50));
  }
}

}  // namespace

Status AtStep(const std::string& step, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), step + ": " + status.message());
}

sim::Task<void> StampEnd(sim::Simulation* sim, sim::Task<void> task,
                         Tick* last_done) {
  co_await std::move(task);
  *last_done = std::max(*last_done, sim->Now());
}

sim::Task<Result<client::KeyspaceHandle>> BulkLoadKeyspace(
    client::Client& db, const std::string& name,
    const std::vector<std::uint64_t>& ids,
    const std::function<std::string(std::uint64_t)>& value_for) {
  auto created = co_await db.CreateKeyspace(name);
  if (!created.ok()) co_return AtStep("create", created.status());
  auto writer = created->NewBulkWriter();
  for (std::uint64_t id : ids) {
    Status s = co_await writer.Add(MakeFixedKey(id), value_for(id));
    if (!s.ok()) co_return AtStep("bulk load", s);
  }
  Status s = co_await writer.Drain();
  if (!s.ok()) co_return AtStep("drain", s);
  co_return created;
}

sim::Task<Result<client::KeyspaceHandle>> LoadKeyspace(
    client::Client& db, const std::string& name,
    const std::vector<std::uint64_t>& ids,
    const std::function<std::string(std::uint64_t)>& value_for,
    const std::vector<nvme::SecondaryIndexSpec>& indexes) {
  auto loaded = co_await BulkLoadKeyspace(db, name, ids, value_for);
  if (!loaded.ok()) co_return loaded;
  client::KeyspaceHandle ks = *loaded;
  Status s;
  if (indexes.empty()) {
    s = co_await ks.Compact();
  } else {
    std::vector<nvme::SecondaryIndexSpec> specs = indexes;
    s = co_await ks.CompactWithIndexes(std::move(specs));
  }
  if (!s.ok()) co_return AtStep("compact", s);
  s = co_await ks.WaitCompaction();
  if (!s.ok()) co_return AtStep("wait compaction", s);
  co_return ks;
}

std::vector<std::uint64_t> SequentialIds(std::uint64_t n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::vector<std::uint64_t> ShuffledIds(std::uint64_t n) {
  std::uint64_t stride = 7919;
  while (n % stride == 0) ++stride;
  std::vector<std::uint64_t> ids(n);
  for (std::uint64_t i = 0; i < n; ++i) ids[i] = (i * stride) % n;
  return ids;
}

std::uint32_t CrcRows(std::uint32_t crc, const client::Rows& rows) {
  for (const auto& [key, value] : rows) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
  }
  return crc;
}

CsdInsertOutcome RunCsdInsert(const TestbedConfig& config,
                              std::uint32_t host_cores,
                              const InsertSpec& spec) {
  CsdTestbed bed(config, host_cores);
  CsdInsertOutcome outcome;

  sim::WaitGroup inserts_done(&bed.sim());
  sim::WaitGroup compactions_done(&bed.sim());
  inserts_done.Add(spec.threads);
  compactions_done.Add(spec.shared_keyspace ? 1 : spec.threads);

  // Shared-keyspace mode: thread 0 creates, others open by name. A
  // thread whose create or open fails counts it, skips its load and still
  // passes every barrier, so the other threads run to completion.
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    bed.sim().Spawn([](CsdTestbed* tb, const InsertSpec* s,
                       sim::WaitGroup* ins_wg, sim::WaitGroup* comp_wg,
                       std::uint64_t* failed,
                       std::uint32_t thread) -> sim::Task<void> {
      auto check = [failed](const Status& st) {
        if (!st.ok()) ++*failed;
        return st.ok();
      };
      auto ks = co_await InsertKeyspace(tb, s, thread);
      const bool opened = check(ks.status());

      if (opened) {
        Rng rng(s->seed * 7919 + thread);
        const std::uint64_t keys = s->total_keys / s->threads;
        if (s->use_bulk_put) {
          auto writer = ks->NewBulkWriter();
          for (std::uint64_t i = 0; i < keys; ++i) {
            check(co_await writer.Add(RandomKey(rng),
                                      MakeValue(s->value_bytes, rng.Next())));
          }
          check(co_await writer.Drain());
        } else {
          for (std::uint64_t i = 0; i < keys; ++i) {
            check(co_await ks->Put(RandomKey(rng),
                                   MakeValue(s->value_bytes, rng.Next())));
          }
        }
      }

      ins_wg->Done();
      // Shared mode: thread 0 compacts once everyone has finished writing.
      if (s->shared_keyspace && thread != 0) co_return;
      if (s->shared_keyspace) co_await ins_wg->Wait();
      if (opened) {
        check(co_await ks->Compact());
        check(co_await ks->WaitCompaction());
      }
      comp_wg->Done();
    }(&bed, &spec, &inserts_done, &compactions_done, &outcome.failed, t));
  }

  // Observer records the two timestamps the paper separates: when the
  // application is done (insert time) and when the device finishes the
  // offloaded compaction.
  bed.sim().Spawn([](CsdTestbed* tb, sim::WaitGroup* ins_wg,
                     sim::WaitGroup* comp_wg,
                     CsdInsertOutcome* out) -> sim::Task<void> {
    co_await ins_wg->Wait();
    out->insert_done = tb->sim().Now();
    co_await comp_wg->Wait();
    out->compaction_done = tb->sim().Now();
  }(&bed, &inserts_done, &compactions_done, &outcome));

  bed.sim().Run();
  if (spec.on_stats) spec.on_stats(bed.sim().stats());
  outcome.zns_bytes_written = bed.dev().ssd().nand().bytes_written();
  outcome.zns_bytes_read = bed.dev().ssd().nand().bytes_read();
  outcome.pcie_h2d_bytes = bed.queue().host_to_device_bytes();
  outcome.pcie_d2h_bytes = bed.queue().device_to_host_bytes();
  return outcome;
}

LsmInsertOutcome RunLsmInsert(const TestbedConfig& config,
                              std::uint32_t host_cores,
                              const InsertSpec& spec,
                              lsm::CompactionMode mode) {
  LsmTestbed bed(config, host_cores);
  LsmInsertOutcome outcome;
  std::vector<std::unique_ptr<lsm::Db>> dbs;

  bed.sim().Spawn([](LsmTestbed* tb, const InsertSpec* s,
                     lsm::CompactionMode m, LsmInsertOutcome* out,
                     std::vector<std::unique_ptr<lsm::Db>>* instances)
                      -> sim::Task<void> {
    const std::uint32_t num_instances = s->shared_keyspace ? 1 : s->threads;
    // An instance that fails to open is counted and stays null; its
    // threads skip their load but still pass the barrier.
    for (std::uint32_t d = 0; d < num_instances; ++d) {
      auto db = co_await tb->OpenDb("db" + std::to_string(d), m);
      if (!db.ok()) ++out->failed;
      instances->push_back(db.ok() ? std::move(*db) : nullptr);
    }

    sim::WaitGroup wg(&tb->sim());
    wg.Add(s->threads);
    for (std::uint32_t t = 0; t < s->threads; ++t) {
      lsm::Db* db =
          (*instances)[s->shared_keyspace ? 0 : t].get();
      if (db == nullptr) {
        wg.Done();
        continue;
      }
      // Each thread finishes its own instance (flush / deferred compact),
      // exactly like the paper's per-thread test program — end-of-run work
      // runs in parallel across instances.
      tb->sim().Spawn([](const InsertSpec* s2, lsm::Db* d,
                         lsm::CompactionMode mode2, bool owns_instance,
                         sim::WaitGroup* group, std::uint64_t* failures,
                         std::uint32_t thread) -> sim::Task<void> {
        Rng rng(s2->seed * 7919 + thread);
        const std::uint64_t keys = s2->total_keys / s2->threads;
        for (std::uint64_t i = 0; i < keys; ++i) {
          Status st = co_await d->Put(RandomKey(rng),
                                      MakeValue(s2->value_bytes, rng.Next()));
          if (!st.ok()) ++*failures;
        }
        if (owns_instance) {
          switch (mode2) {
            case lsm::CompactionMode::kAuto:
            case lsm::CompactionMode::kNone: {
              Status st = co_await d->Flush();
              if (!st.ok()) ++*failures;
              co_await d->WaitForIdle();
              break;
            }
            case lsm::CompactionMode::kDeferred: {
              Status st = co_await d->CompactRange();
              if (!st.ok()) ++*failures;
              break;
            }
          }
        }
        group->Done();
      }(s, db, m, !s->shared_keyspace, &wg, &out->failed, t));
    }
    co_await wg.Wait();

    // Shared-instance mode: one end-of-run pass for the single DB.
    if (s->shared_keyspace && (*instances)[0] != nullptr) {
      lsm::Db* db = (*instances)[0].get();
      Status st = Status::Ok();
      switch (m) {
        case lsm::CompactionMode::kAuto:
        case lsm::CompactionMode::kNone:
          st = co_await db->Flush();
          co_await db->WaitForIdle();
          break;
        case lsm::CompactionMode::kDeferred:
          st = co_await db->CompactRange();
          break;
      }
      if (!st.ok()) ++out->failed;
    }
    out->total_done = tb->sim().Now();
    for (auto& db : *instances) {
      if (db == nullptr) continue;
      out->stalls += db->stats().stalls;
      out->stall_time += db->stats().stall_time;
      out->compactions += db->stats().compactions;
      if (!(co_await db->Close()).ok()) ++out->failed;
    }
  }(&bed, &spec, mode, &outcome, &dbs));

  bed.sim().Run();
  outcome.device_bytes_read = bed.ssd().total_bytes_read();
  outcome.device_bytes_written = bed.ssd().total_bytes_written();
  return outcome;
}

void CountFailures(const std::string& run, std::uint64_t failed,
                   std::uint64_t* total) {
  if (failed == 0) return;
  std::fprintf(stderr, "FAIL: %s: %llu operations failed\n", run.c_str(),
               static_cast<unsigned long long>(failed));
  *total += failed;
}

bool CheckOk(const Status& s, const std::string& what) {
  if (s.ok()) return true;
  std::fprintf(stderr, "FAIL: %s: %s\n", what.c_str(), s.ToString().c_str());
  return false;
}

QueryOutcome RunCsdGets(CsdTestbed& bed,
                        std::vector<client::KeyspaceHandle>& keyspaces,
                        const GetSpec& spec) {
  QueryOutcome outcome;
  const std::uint64_t nand_read_start = bed.dev().ssd().nand().bytes_read();
  const std::uint64_t d2h_start = bed.queue().device_to_host_bytes();

  outcome.query_time = RunPhase(bed.sim(), spec.threads, [&](std::size_t t) {
    return [](client::KeyspaceHandle ks, const GetSpec* s, QueryOutcome* out,
              std::uint64_t thread) -> sim::Task<void> {
      Rng rng(s->seed * 104729 + thread);
      const std::uint64_t gets = s->total_gets / s->threads;
      for (std::uint64_t i = 0; i < gets; ++i) {
        const std::uint64_t id = rng.Uniform(s->keys_per_keyspace);
        CountGetStatus((co_await ks.Get(MakeFixedKey(id))).status(), out);
      }
    }(keyspaces[t % keyspaces.size()], &spec, &outcome, t);
  });
  outcome.device_bytes_read =
      bed.dev().ssd().nand().bytes_read() - nand_read_start;
  outcome.pcie_d2h_bytes = bed.queue().device_to_host_bytes() - d2h_start;
  return outcome;
}

QueryOutcome RunLsmGets(LsmTestbed& bed, std::vector<lsm::Db*>& dbs,
                        const GetSpec& spec, bool drop_page_cache) {
  QueryOutcome outcome;
  if (drop_page_cache) bed.page_cache().DropAll();
  const std::uint64_t read_start = bed.ssd().total_bytes_read();

  outcome.query_time = RunPhase(bed.sim(), spec.threads, [&](std::size_t t) {
    return [](lsm::Db* db, const GetSpec* s, QueryOutcome* out,
              std::uint64_t thread) -> sim::Task<void> {
      Rng rng(s->seed * 104729 + thread);
      const std::uint64_t gets = s->total_gets / s->threads;
      std::string value;
      for (std::uint64_t i = 0; i < gets; ++i) {
        const std::uint64_t id = rng.Uniform(s->keys_per_keyspace);
        CountGetStatus(co_await db->Get(MakeFixedKey(id), &value), out);
      }
    }(dbs[t % dbs.size()], &spec, &outcome, t);
  });
  outcome.device_bytes_read = bed.ssd().total_bytes_read() - read_start;
  return outcome;
}

}  // namespace kvcsd::harness
