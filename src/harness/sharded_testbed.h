// Multi-device testbed: N independent KV-CSDs behind one shard router,
// all on one shared simulation.
//
// Each shard is a full DeviceStack — its own ZNS SSD + SoC (Device), its
// own PCIe link and SQ/CQ set (QueueSet), and its own async client with a
// private admission window — so shards contend for nothing but host CPU.
// Per-shard series are kept separable by prefixing ("shard0." on device
// stats/tracks and queue resources, "client.shard0." on client latency
// series); the fleet-level router series live under "router.".
// DESIGN.md §15 describes the scaling model this assembles.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/testbed.h"
#include "harness/tracing.h"
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
        host_cpu_(&sim_, "host", config_.shard.host_cores, kHostLayers),
        partitioner_(std::move(partitioner)) {
    shards_.reserve(config_.num_shards);
    for (std::uint32_t i = 0; i < config_.num_shards; ++i) {
      shards_.push_back(std::make_unique<DeviceStack>(
          &sim_, &host_cpu_, config_.shard,
          "shard" + std::to_string(i) + "."));
    }
    BuildRouter();
    EnableObservability(&sim_);
    for (auto& shard : shards_) shard->Start();
  }
  ~ShardedTestbed() { DumpObservability(&sim_); }
  ShardedTestbed(const ShardedTestbed&) = delete;
  ShardedTestbed& operator=(const ShardedTestbed&) = delete;

  // Power-cycles every shard (DeviceStack::PowerCycle) and builds a new
  // router over the fresh clients with the same partitioner, so keys
  // route as before. Run dev(i).Recover() for every shard afterwards.
  void PowerCycle() {
    for (auto& shard : shards_) shard->PowerCycle();
    BuildRouter();
  }

  sim::Simulation& sim() { return sim_; }
  router::ShardedClient& router() { return *router_; }
  std::uint32_t num_shards() const { return config_.num_shards; }
  client::Client& client(std::uint32_t i) { return shards_[i]->client(); }
  device::Device& dev(std::uint32_t i) { return shards_[i]->dev(); }
  nvme::QueueSet& queue(std::uint32_t i) { return shards_[i]->queue(); }
  sim::CpuPool& host_cpu() { return host_cpu_; }

 private:
  void BuildRouter() {
    std::vector<client::Client*> clients;
    clients.reserve(shards_.size());
    for (auto& shard : shards_) clients.push_back(&shard->client());
    router_ = std::make_unique<router::ShardedClient>(
        &sim_, std::move(clients), partitioner_);
  }

  ShardedTestbedConfig config_;
  sim::Simulation sim_;
  sim::CpuPool host_cpu_;
  std::shared_ptr<const router::Partitioner> partitioner_;
  std::vector<std::unique_ptr<DeviceStack>> shards_;
  std::unique_ptr<router::ShardedClient> router_;
};

}  // namespace kvcsd::harness
