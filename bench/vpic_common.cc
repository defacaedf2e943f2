#include "vpic_common.h"

namespace kvcsd::bench {

Result<CsdVpicTimes> LoadVpicIntoCsd(
    CsdTestbed& bed, const vpic::Dump& dump,
    std::vector<client::KeyspaceHandle>* handles) {
  const std::uint32_t files = dump.num_files();
  handles->assign(files, client::KeyspaceHandle{});
  CsdVpicTimes times;
  Status first_error = Status::Ok();

  sim::WaitGroup inserted(&bed.sim());
  sim::WaitGroup compacted(&bed.sim());
  sim::WaitGroup indexed(&bed.sim());
  inserted.Add(files);
  compacted.Add(files);
  indexed.Add(files);

  // A failed step skips the rest of its keyspace's load but still passes
  // every barrier, so the other loaders run to completion.
  for (std::uint32_t t = 0; t < files; ++t) {
    bed.sim().Spawn([](CsdTestbed* tb, const vpic::Dump* d,
                       std::vector<client::KeyspaceHandle>* out,
                       Status* error, sim::WaitGroup* ins,
                       sim::WaitGroup* comp, sim::WaitGroup* idx,
                       std::uint32_t thread) -> sim::Task<void> {
      auto note = [error](const Status& s) {
        if (!s.ok() && error->ok()) *error = s;
        return s.ok();
      };
      auto created = co_await tb->client().CreateKeyspace(
          "vpic" + std::to_string(thread));
      bool ok = note(created.status());
      if (ok) {
        (*out)[thread] = *created;
        auto writer = created->NewBulkWriter();
        for (const vpic::Particle* p : d->FileParticles(thread)) {
          ok = note(co_await writer.Add(p->Key(), p->Payload()));
          if (!ok) break;
        }
        if (ok) ok = note(co_await writer.Drain());
        // Compact() returns immediately; the device works.
        if (ok) ok = note(co_await created->Compact());
      }
      ins->Done();
      if (ok) ok = note(co_await (*out)[thread].WaitCompaction());
      comp->Done();
      co_await comp->Wait();  // paper builds indexes after compaction
      if (ok) {
        note(co_await (*out)[thread].CreateSecondaryIndexF32(
            "energy", vpic::kEnergyOffset));
      }
      idx->Done();
    }(&bed, &dump, handles, &first_error, &inserted, &compacted, &indexed, t));
  }

  bed.sim().Spawn([](CsdTestbed* tb, CsdVpicTimes* out, sim::WaitGroup* ins,
                     sim::WaitGroup* comp,
                     sim::WaitGroup* idx) -> sim::Task<void> {
    const Tick start = tb->sim().Now();
    co_await ins->Wait();
    out->insert = tb->sim().Now() - start;
    co_await comp->Wait();
    out->compaction = tb->sim().Now() - start - out->insert;
    co_await idx->Wait();
    out->index = tb->sim().Now() - start - out->insert - out->compaction;
  }(&bed, &times, &inserted, &compacted, &indexed));

  bed.sim().Run();
  if (!first_error.ok()) return first_error;
  return times;
}

LsmVpicTimes LoadVpicIntoLsm(LsmTestbed& bed, const vpic::Dump& dump,
                             std::vector<std::unique_ptr<lsm::Db>>* dbs) {
  const std::uint32_t files = dump.num_files();
  dbs->clear();
  dbs->resize(files);
  LsmVpicTimes times;

  sim::WaitGroup inserted(&bed.sim());
  sim::WaitGroup settled(&bed.sim());
  inserted.Add(files);
  settled.Add(files);

  for (std::uint32_t t = 0; t < files; ++t) {
    bed.sim().Spawn([](LsmTestbed* tb, const vpic::Dump* d,
                       std::vector<std::unique_ptr<lsm::Db>>* out,
                       sim::WaitGroup* ins, sim::WaitGroup* done,
                       std::uint32_t thread) -> sim::Task<void> {
      auto db = (co_await tb->OpenDb("vpic" + std::to_string(thread),
                                     lsm::CompactionMode::kAuto))
                    .value();
      lsm::Db* handle = db.get();
      (*out)[thread] = std::move(db);
      for (const vpic::Particle* p : d->FileParticles(thread)) {
        // Primary record plus the auxiliary energy-index record.
        (void)co_await handle->Put(PrimaryKey(*p), p->Payload());
        (void)co_await handle->Put(AuxKey(*p), p->Key());
      }
      ins->Done();
      // Automatic compactions may still be running; the paper's program
      // waits for them before exiting.
      (void)co_await handle->Flush();
      co_await handle->WaitForIdle();
      done->Done();
    }(&bed, &dump, dbs, &inserted, &settled, t));
  }

  bed.sim().Spawn([](LsmTestbed* tb, LsmVpicTimes* out, sim::WaitGroup* ins,
                     sim::WaitGroup* done) -> sim::Task<void> {
    const Tick start = tb->sim().Now();
    co_await ins->Wait();
    out->insert = tb->sim().Now() - start;
    co_await done->Wait();
    out->compaction_wait = tb->sim().Now() - start - out->insert;
  }(&bed, &times, &inserted, &settled));

  bed.sim().Run();
  return times;
}

}  // namespace kvcsd::bench
