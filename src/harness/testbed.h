// Experiment testbeds: one-stop assembly of the two systems under test,
// dimensioned after the paper's Table I.
//
//   Host:   32× AMD EPYC cores, 512 GB DRAM (page cache scaled), Ubuntu —
//           runs RocksLite (the RocksDB stand-in) over ext4-ish Fs on a
//           conventional NVMe SSD.
//   KV-CSD: 4× ARM Cortex-A53 + 8 GB DRAM SoC over a 15 TB NVMe ZNS SSD,
//           PCIe Gen3 ×16 to the host.
//
// Benchmarks typically scale the dataset down (--keys) while keeping the
// hardware ratios fixed; DESIGN.md §5 explains why the comparison shapes
// are scale-invariant.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "harness/tracing.h"
#include "hostenv/fs.h"
#include "kvcsd/device.h"
#include "lsm/db.h"
#include "nvme/queue.h"
#include "sim/simulation.h"
#include "vpic/vpic.h"

namespace kvcsd::harness {

struct TestbedConfig {
  // --- host (Table I, left column) ---
  std::uint32_t host_cores = 32;
  std::uint64_t page_cache_bytes = GiB(8);   // OS page cache budget
  std::uint64_t block_cache_bytes = MiB(512);  // RocksDB block cache
  hostenv::CostModel host_costs = hostenv::CostModel::Host();
  storage::BlockSsdConfig host_ssd;

  // --- KV-CSD (Table I, right column) ---
  device::DeviceConfig device;
  // PCIe link plus SQ/CQ topology: queues.num_queues pairs (default 1),
  // served round-robin, and queues.sq_depth_cap per-queue depth.
  nvme::QueueSetConfig queues;

  // --- RocksLite instance defaults ---
  lsm::DbOptions db_options;

  // Scaled default: zone sizes and DRAM shrunk so multi-GiB experiments
  // are unnecessary; ratios (SoC:host core speed, PCIe:NAND bandwidth)
  // stay at Table I values.
  static TestbedConfig Scaled() {
    TestbedConfig c;
    c.device.zns.zone_size = MiB(8);
    c.device.zns.num_zones = 8192;       // 64 GiB virtual ZNS capacity
    c.device.zns.nand.channels = 16;
    c.device.dram_bytes = MiB(256);      // SoC DRAM (scaled from 8 GB)
    c.host_ssd.nand.channels = 16;
    // A deeper tree at scaled data sizes keeps the compaction burden per
    // byte comparable to the paper's full-size runs.
    c.db_options.memtable_size = MiB(4);
    c.db_options.level_base_size = MiB(16);
    c.db_options.max_file_size = MiB(4);
    return c;
  }

  // Human-readable header for bench output (stands in for Table I).
  std::string Describe() const;

  // Scales the RocksLite tree to the per-instance dataset size so that a
  // scaled-down run exercises the same relative flush/compaction burden as
  // the paper's full-size datasets (roughly a dozen memtables of data, a
  // multi-level tree).
  void ScaleLsmTreeTo(std::uint64_t bytes_per_instance) {
    std::uint64_t memtable = bytes_per_instance / 12;
    memtable = std::max<std::uint64_t>(memtable, KiB(128));
    memtable = std::min<std::uint64_t>(memtable, MiB(64));
    db_options.memtable_size = memtable;
    db_options.level_base_size = 4 * memtable;
    db_options.max_file_size = memtable;
  }
};

// The ledger layers of a host CPU pool that clients submit through.
inline constexpr sim::Layers kHostLayers{sim::Layer::kHostCpu,
                                         sim::Layer::kHostCpu};

// One KV-CSD stack: an NVMe queue set, the device behind it and the host
// client in front of it, on a shared simulation and host CPU pool. Every
// series the stack records carries `prefix` ("" for a lone device,
// "shard<i>." in a fleet; the client's latency series go under
// "client.<prefix>"). Start() spawns the device's command loop.
//
// PowerCycle() is a power cut and reboot: a fresh queue set,
// Device::Restart over the surviving ZNS state, Start, and a fresh
// client. Earlier incarnations stay parked (the old device still waits on
// its dead queue set) until the stack dies. The caller runs dev().Recover()
// afterwards, inside the simulation.
class DeviceStack {
 public:
  DeviceStack(sim::Simulation* sim, sim::CpuPool* host_cpu,
              const TestbedConfig& config, const std::string& prefix);
  DeviceStack(const DeviceStack&) = delete;
  DeviceStack& operator=(const DeviceStack&) = delete;

  void Start() { dev().Start(); }
  void PowerCycle();

  client::Client& client() { return *clients_.back(); }
  device::Device& dev() { return *devices_.back(); }
  nvme::QueueSet& queue() { return *queues_.back(); }

 private:
  void AddClient();

  sim::Simulation* sim_;
  sim::CpuPool* host_cpu_;
  TestbedConfig config_;
  client::ClientConfig client_config_;
  std::vector<std::unique_ptr<nvme::QueueSet>> queues_;
  std::vector<std::unique_ptr<device::Device>> devices_;
  std::vector<std::unique_ptr<client::Client>> clients_;
};

// The KV-CSD system under test: one unprefixed device stack on its own
// simulation.
class CsdTestbed {
 public:
  explicit CsdTestbed(const TestbedConfig& config,
                      std::uint32_t host_cores_override = 0)
      : host_cpu_(&sim_, "host",
                  host_cores_override ? host_cores_override
                                      : config.host_cores,
                  kHostLayers),
        stack_(&sim_, &host_cpu_, config, "") {
    EnableObservability(&sim_);
    stack_.Start();
  }
  ~CsdTestbed() { DumpObservability(&sim_); }
  CsdTestbed(const CsdTestbed&) = delete;
  CsdTestbed& operator=(const CsdTestbed&) = delete;

  // Simulated power cycle (DeviceStack::PowerCycle); run dev().Recover()
  // inside the simulation afterwards.
  void PowerCycle() { stack_.PowerCycle(); }

  sim::Simulation& sim() { return sim_; }
  client::Client& client() { return stack_.client(); }
  device::Device& dev() { return stack_.dev(); }
  nvme::QueueSet& queue() { return stack_.queue(); }
  sim::CpuPool& host_cpu() { return host_cpu_; }

 private:
  sim::Simulation sim_;
  sim::CpuPool host_cpu_;
  DeviceStack stack_;
};

// The software-baseline system under test: RocksLite on ext4-ish Fs.
class LsmTestbed {
 public:
  explicit LsmTestbed(const TestbedConfig& config,
                      std::uint32_t host_cores_override = 0)
      : config_(config),
        host_cpu_(&sim_, "host",
                  host_cores_override ? host_cores_override
                                      : config.host_cores),
        ssd_(&sim_, config.host_ssd),
        page_cache_(config.page_cache_bytes),
        fs_(&sim_, &host_cpu_, &ssd_, &page_cache_, config.host_costs),
        env_{&sim_, &fs_, &host_cpu_, config.host_costs, &sim_.stats()},
        block_cache_(config.block_cache_bytes) {
    EnableObservability(&sim_);
  }
  ~LsmTestbed() { DumpObservability(&sim_); }
  LsmTestbed(const LsmTestbed&) = delete;
  LsmTestbed& operator=(const LsmTestbed&) = delete;

  // Opens one RocksLite instance named `name` in the given mode.
  sim::Task<Result<std::unique_ptr<lsm::Db>>> OpenDb(
      const std::string& name, lsm::CompactionMode mode) {
    lsm::DbOptions options = config_.db_options;
    options.name = name;
    options.compaction_mode = mode;
    return lsm::Db::Open(&env_, &block_cache_, options);
  }

  sim::Simulation& sim() { return sim_; }
  hostenv::Fs& fs() { return fs_; }
  hostenv::PageCache& page_cache() { return page_cache_; }
  lsm::BlockCache& block_cache() { return block_cache_; }
  storage::BlockSsd& ssd() { return ssd_; }
  sim::CpuPool& host_cpu() { return host_cpu_; }

 private:
  TestbedConfig config_;
  sim::Simulation sim_;
  sim::CpuPool host_cpu_;
  storage::BlockSsd ssd_;
  hostenv::PageCache page_cache_;
  hostenv::Fs fs_;
  lsm::LsmEnv env_;
  lsm::BlockCache block_cache_;
};

}  // namespace kvcsd::harness
