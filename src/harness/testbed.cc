#include "harness/testbed.h"

#include <cstdio>

#include "harness/report.h"

namespace kvcsd::harness {

std::string TestbedConfig::Describe() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "Testbed (paper Table I, scaled):\n"
      "  Host   : %u cores, page cache %s, block cache %s, "
      "conventional SSD %u ch\n"
      "  KV-CSD : %u ARM cores, %s SoC DRAM, ZNS %u zones x %s (%u ch), "
      "write buffer %s\n"
      "  PCIe   : %.1f GB/s, %s request latency, %u SQ/CQ pair(s)\n",
      host_cores, FormatBytes(page_cache_bytes).c_str(),
      FormatBytes(block_cache_bytes).c_str(), host_ssd.nand.channels,
      device.soc_cores, FormatBytes(device.dram_bytes).c_str(),
      device.zns.num_zones, FormatBytes(device.zns.zone_size).c_str(),
      device.zns.nand.channels,
      FormatBytes(device.write_buffer_bytes).c_str(),
      queues.pcie.bytes_per_sec / 1e9,
      FormatSeconds(queues.pcie.request_latency).c_str(),
      queues.num_queues);
  return buf;
}

DeviceStack::DeviceStack(sim::Simulation* sim, sim::CpuPool* host_cpu,
                         const TestbedConfig& config,
                         const std::string& prefix)
    : sim_(sim), host_cpu_(host_cpu), config_(config) {
  config_.queues.name_prefix = prefix;
  config_.device.stats_prefix = prefix;
  client_config_.stats_prefix = "client." + prefix;
  queues_.push_back(std::make_unique<nvme::QueueSet>(sim_, config_.queues));
  devices_.push_back(
      std::make_unique<device::Device>(sim_, config_.device, &queue()));
  AddClient();
}

void DeviceStack::PowerCycle() {
  queues_.push_back(std::make_unique<nvme::QueueSet>(sim_, config_.queues));
  devices_.push_back(
      device::Device::Restart(sim_, config_.device, &queue(), dev()));
  dev().Start();
  AddClient();
}

void DeviceStack::AddClient() {
  clients_.push_back(std::make_unique<client::Client>(
      &queue(), host_cpu_, config_.host_costs, client_config_));
}

}  // namespace kvcsd::harness
