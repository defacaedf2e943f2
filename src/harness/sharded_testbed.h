// Multi-device testbed: N independent KV-CSDs behind one shard router,
// all on one shared simulation.
//
// Each shard gets the full single-device stack — its own ZNS SSD + SoC
// (Device), its own PCIe link and SQ/CQ set (QueueSet), and its own
// async client with a private admission window — so shards contend for
// nothing but host CPU. Per-shard series are kept separable by prefixing
// ("shard0." on device stats/tracks and queue resources, "client.shard0."
// on client latency series); the fleet-level router series live under
// "router.". DESIGN.md §15 describes the scaling model this assembles.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "harness/testbed.h"
#include "harness/tracing.h"
#include "kvcsd/device.h"
#include "nvme/queue.h"
#include "router/sharded_client.h"
#include "sim/simulation.h"

namespace kvcsd::harness {

struct ShardedTestbedConfig {
  // Per-shard hardware; reused for every shard. Scale the DATASET with
  // shard count, not this config: the point of the sweep is fixed
  // per-device hardware.
  TestbedConfig shard = TestbedConfig::Scaled();
  std::uint32_t num_shards = 4;
};

class ShardedTestbed {
 public:
  explicit ShardedTestbed(const ShardedTestbedConfig& config,
                          std::unique_ptr<router::Partitioner> partitioner =
                              std::make_unique<router::HashPartitioner>())
      : config_(config),
        host_cpu_(&sim_, "host", config_.shard.host_cores) {
    shards_.reserve(config_.num_shards);
    std::vector<client::Client*> clients;
    clients.reserve(config_.num_shards);
    for (std::uint32_t i = 0; i < config_.num_shards; ++i) {
      const std::string prefix = "shard" + std::to_string(i) + ".";
      auto shard = std::make_unique<Shard>();
      nvme::QueueSetConfig queues = config_.shard.queues;
      queues.name_prefix = prefix;
      shard->queue = std::make_unique<nvme::QueueSet>(&sim_, queues);
      device::DeviceConfig dev = config_.shard.device;
      dev.stats_prefix = prefix;
      shard->device = std::make_unique<device::Device>(&sim_, dev,
                                                       shard->queue.get());
      client::ClientConfig cc;
      cc.stats_prefix = "client." + prefix;
      shard->client = std::make_unique<client::Client>(
          shard->queue.get(), &host_cpu_, config_.shard.host_costs, cc);
      clients.push_back(shard->client.get());
      shards_.push_back(std::move(shard));
    }
    router_ = std::make_unique<router::ShardedClient>(
        &sim_, std::move(clients), std::move(partitioner));
    EnableObservability(&sim_);
    for (auto& shard : shards_) shard->device->Start();
  }
  ~ShardedTestbed() { DumpObservability(&sim_); }
  ShardedTestbed(const ShardedTestbed&) = delete;
  ShardedTestbed& operator=(const ShardedTestbed&) = delete;

  sim::Simulation& sim() { return sim_; }
  router::ShardedClient& router() { return *router_; }
  std::uint32_t num_shards() const { return config_.num_shards; }
  client::Client& client(std::uint32_t i) { return *shards_[i]->client; }
  device::Device& dev(std::uint32_t i) { return *shards_[i]->device; }
  nvme::QueueSet& queue(std::uint32_t i) { return *shards_[i]->queue; }
  sim::CpuPool& host_cpu() { return host_cpu_; }

 private:
  struct Shard {
    std::unique_ptr<nvme::QueueSet> queue;
    std::unique_ptr<device::Device> device;
    std::unique_ptr<client::Client> client;
  };

  ShardedTestbedConfig config_;
  sim::Simulation sim_;
  sim::CpuPool host_cpu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<router::ShardedClient> router_;
};

}  // namespace kvcsd::harness
