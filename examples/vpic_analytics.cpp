// VPIC analytics: the paper's motivating scenario end to end.
//
// A plasma simulation dumps particles as fast as it can (no time to sort
// or index); a scientist later asks highly selective questions like "which
// particles exceeded energy E?". With KV-CSD the dump lands as unsorted
// logs, the device sorts and indexes asynchronously, and the selective
// query streams back only the matching particles.
//
// Exits 1 if any step fails.
//
// Build & run:  ./build/examples/vpic_analytics [--particles=N]
#include <cstdio>

#include "client/client.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/workloads.h"
#include "sim/sync.h"
#include "vpic/vpic.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

// Signals `wg` only when the file loaded and its compaction started.
sim::Task<void> LoadFile(CsdTestbed* bed, const vpic::Dump* dump,
                         std::uint32_t file_index, sim::WaitGroup* wg,
                         std::vector<client::KeyspaceHandle>* handles) {
  // One loader process per dump file, like the paper's 16-thread loader.
  const std::string name = "vpic_file" + std::to_string(file_index);
  auto ks = co_await bed->client().CreateKeyspace(name);
  if (!CheckOk(ks.status(), name + " create")) co_return;
  auto writer = ks->NewBulkWriter();
  for (const vpic::Particle* p : dump->FileParticles(file_index)) {
    if (!CheckOk(co_await writer.Add(p->Key(), p->Payload()),
                 name + " bulk put")) {
      co_return;
    }
  }
  if (!CheckOk(co_await writer.Drain(), name + " bulk put drain") ||
      // Deferred + offloaded: returns at once.
      !CheckOk(co_await ks->Compact(), name + " compact")) {
    co_return;
  }
  (*handles)[file_index] = *ks;
  wg->Done();
}

// Sets *finished only when every step succeeded.
sim::Task<void> Analyze(CsdTestbed* bed, const vpic::Dump* dump,
                        std::vector<client::KeyspaceHandle>* handles,
                        bool* finished) {
  // Wait for the device to finish sorting, then attach the energy index.
  for (auto& ks : *handles) {
    if (!CheckOk(co_await ks.WaitCompaction(), "wait compaction") ||
        !CheckOk(co_await ks.CreateSecondaryIndexF32("energy",
                                                     vpic::kEnergyOffset),
                 "energy index")) {
      co_return;
    }
  }
  std::printf("[t=%s] all keyspaces compacted + indexed\n",
              FormatSeconds(bed->sim().Now()).c_str());

  // Highly selective query: the top ~0.1% most energetic particles.
  const float threshold = dump->EnergyThresholdForSelectivity(0.001);
  std::uint64_t hits = 0;
  float max_energy = 0;
  for (auto& ks : *handles) {
    std::vector<std::pair<std::string, std::string>> out;
    if (!CheckOk(co_await ks.QuerySecondaryRangeF32("energy", threshold,
                                                    1e30f, 0, &out),
                 "energy query")) {
      co_return;
    }
    hits += out.size();
    for (const auto& [pkey, payload] : out) {
      vpic::Particle p;
      if (vpic::ParsePayload(payload, &p) && p.energy > max_energy) {
        max_energy = p.energy;
      }
    }
  }
  std::printf(
      "[t=%s] energy > %.3f matched %llu of %llu particles "
      "(max energy %.3f)\n",
      FormatSeconds(bed->sim().Now()).c_str(), threshold,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(dump->num_particles()), max_energy);
  *finished = true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 256 << 10);
  const vpic::Dump dump(gen);
  std::printf("generated %llu synthetic VPIC particles in %u files\n",
              static_cast<unsigned long long>(dump.num_particles()),
              dump.num_files());

  TestbedConfig config = TestbedConfig::Scaled();
  CsdTestbed bed(config);
  std::vector<client::KeyspaceHandle> handles(dump.num_files());

  sim::WaitGroup loaded(&bed.sim());
  loaded.Add(dump.num_files());
  for (std::uint32_t f = 0; f < dump.num_files(); ++f) {
    bed.sim().Spawn(LoadFile(&bed, &dump, f, &loaded, &handles));
  }
  bool finished = false;
  bed.sim().Spawn([](CsdTestbed* b, const vpic::Dump* d,
                     std::vector<client::KeyspaceHandle>* h,
                     sim::WaitGroup* wg, bool* ok) -> sim::Task<void> {
    co_await wg->Wait();
    std::printf("[t=%s] dump loaded; device is sorting in the background\n",
                FormatSeconds(b->sim().Now()).c_str());
    co_await Analyze(b, d, h, ok);
  }(&bed, &dump, &handles, &loaded, &finished));
  bed.sim().Run();
  return finished ? 0 : 1;
}
