#include "harness/workloads.h"

#include <cstdio>
#include <string>

#include "common/keys.h"
#include "common/random.h"
#include "sim/sync.h"

namespace kvcsd::harness {

namespace {

// Deterministic per-thread key stream: random 8 B ids widened to
// `key_bytes` (duplicates across threads are possible and harmless, as
// with the paper's random workload).
std::string RandomKey(Rng& rng, std::uint32_t key_bytes) {
  return MakeFixedKey(rng.Next(), key_bytes);
}

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

}  // namespace

CsdInsertOutcome RunCsdInsert(const TestbedConfig& config,
                              std::uint32_t host_cores,
                              const InsertSpec& spec) {
  CsdTestbed bed(config, host_cores);
  CsdInsertOutcome outcome;

  sim::WaitGroup inserts_done(&bed.sim());
  sim::WaitGroup compactions_done(&bed.sim());
  inserts_done.Add(spec.threads);
  compactions_done.Add(spec.shared_keyspace ? 1 : spec.threads);

  // Shared-keyspace mode: thread 0 creates, others open by name.
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    bed.sim().Spawn([](CsdTestbed* tb, const InsertSpec* s,
                       sim::WaitGroup* ins_wg, sim::WaitGroup* comp_wg,
                       std::uint64_t* failed,
                       std::uint32_t thread) -> sim::Task<void> {
      auto check = [failed](const Status& st) {
        if (!st.ok()) ++*failed;
      };
      client::Client& db = tb->client();
      client::KeyspaceHandle ks;
      if (s->shared_keyspace) {
        if (thread == 0) {
          ks = (co_await db.CreateKeyspace("shared")).value();
        } else {
          // Later threads open after thread 0 created it; retry briefly.
          for (;;) {
            auto opened = co_await db.OpenKeyspace("shared");
            if (opened.ok()) {
              ks = *opened;
              break;
            }
            co_await tb->sim().Delay(Microseconds(50));
          }
        }
      } else {
        ks = (co_await db.CreateKeyspace("ks" + std::to_string(thread)))
                 .value();
      }

      Rng rng(s->seed * 7919 + thread);
      const std::uint64_t keys = s->total_keys / s->threads;
      if (s->use_bulk_put) {
        auto writer = ks.NewBulkWriter();
        for (std::uint64_t i = 0; i < keys; ++i) {
          check(co_await writer.Add(RandomKey(rng, s->key_bytes),
                                    MakeValue(s->value_bytes, rng.Next())));
        }
        check(co_await writer.Drain());
      } else {
        for (std::uint64_t i = 0; i < keys; ++i) {
          check(co_await ks.Put(RandomKey(rng, s->key_bytes),
                                MakeValue(s->value_bytes, rng.Next())));
        }
      }

      ins_wg->Done();
      if (s->shared_keyspace) {
        if (thread == 0) {
          // Invoke compaction once everyone has finished writing.
          co_await ins_wg->Wait();
          check(co_await ks.Compact());
          check(co_await ks.WaitCompaction());
          comp_wg->Done();
        }
      } else {
        check(co_await ks.Compact());
        check(co_await ks.WaitCompaction());
        comp_wg->Done();
      }
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
    for (std::uint32_t d = 0; d < num_instances; ++d) {
      auto db = co_await tb->OpenDb("db" + std::to_string(d), m);
      instances->push_back(std::move(db).value());
    }

    sim::WaitGroup wg(&tb->sim());
    wg.Add(s->threads);
    for (std::uint32_t t = 0; t < s->threads; ++t) {
      lsm::Db* db =
          (*instances)[s->shared_keyspace ? 0 : t].get();
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
          Status st = co_await d->Put(RandomKey(rng, s2->key_bytes),
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
    if (s->shared_keyspace) {
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

QueryOutcome RunCsdGets(CsdTestbed& bed,
                        std::vector<client::KeyspaceHandle>& keyspaces,
                        const GetSpec& spec) {
  QueryOutcome outcome;
  const Tick start = bed.sim().Now();
  const std::uint64_t nand_read_start = bed.dev().ssd().nand().bytes_read();
  const std::uint64_t d2h_start = bed.queue().device_to_host_bytes();

  sim::WaitGroup wg(&bed.sim());
  wg.Add(spec.threads);
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    bed.sim().Spawn([](client::KeyspaceHandle ks, const GetSpec* s,
                       sim::WaitGroup* group, QueryOutcome* out,
                       std::uint32_t thread) -> sim::Task<void> {
      Rng rng(s->seed * 104729 + thread);
      const std::uint64_t gets = s->total_gets / s->threads;
      for (std::uint64_t i = 0; i < gets; ++i) {
        const std::uint64_t id = rng.Uniform(s->keys_per_keyspace);
        CountGetStatus((co_await ks.Get(MakeFixedKey(id))).status(), out);
      }
      group->Done();
    }(keyspaces[t % keyspaces.size()], &spec, &wg, &outcome, t));
  }
  bed.sim().Run();

  outcome.query_time = bed.sim().Now() - start;
  outcome.device_bytes_read =
      bed.dev().ssd().nand().bytes_read() - nand_read_start;
  outcome.pcie_d2h_bytes = bed.queue().device_to_host_bytes() - d2h_start;
  return outcome;
}

QueryOutcome RunLsmGets(LsmTestbed& bed, std::vector<lsm::Db*>& dbs,
                        const GetSpec& spec, bool drop_page_cache) {
  QueryOutcome outcome;
  if (drop_page_cache) bed.page_cache().DropAll();
  const Tick start = bed.sim().Now();
  const std::uint64_t read_start = bed.ssd().total_bytes_read();

  sim::WaitGroup wg(&bed.sim());
  wg.Add(spec.threads);
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    bed.sim().Spawn([](lsm::Db* db, const GetSpec* s, sim::WaitGroup* group,
                       QueryOutcome* out,
                       std::uint32_t thread) -> sim::Task<void> {
      Rng rng(s->seed * 104729 + thread);
      const std::uint64_t gets = s->total_gets / s->threads;
      std::string value;
      for (std::uint64_t i = 0; i < gets; ++i) {
        const std::uint64_t id = rng.Uniform(s->keys_per_keyspace);
        CountGetStatus(co_await db->Get(MakeFixedKey(id), &value), out);
      }
      group->Done();
    }(dbs[t % dbs.size()], &spec, &wg, &outcome, t));
  }
  bed.sim().Run();

  outcome.query_time = bed.sim().Now() - start;
  outcome.device_bytes_read = bed.ssd().total_bytes_read() - read_start;
  return outcome;
}

}  // namespace kvcsd::harness
