// NAND flash timing model shared by the ZNS SSD (device side) and the
// conventional block SSD (host side).
//
// Geometry and costs are first-order: the SSD exposes `channels`
// independent channels; each serializes data transfers at
// `channel_bytes_per_sec`, and each operation additionally pays the NAND
// array latency (read / program / erase), which pipelines across
// back-to-back operations the way real plane-level parallelism does. A
// caller's ledger books the channel queueing as nand_wait and the
// transfer plus the array latency as nand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/resources.h"
#include "sim/simulation.h"

namespace kvcsd::storage {

struct NandConfig {
  std::uint32_t channels = 16;
  std::uint32_t page_size = 4096;
  // Latencies are FIRST-page latencies; sustained throughput (all planes
  // busy) is already captured by channel_bytes_per_sec, so large requests
  // pay the latency once and the transfer time for the rest.
  Tick read_latency = Microseconds(70);
  Tick program_latency = Microseconds(100);
  Tick erase_latency = Milliseconds(3);
  double channel_bytes_per_sec = 500e6;  // per-channel streaming rate
};

class NandModel {
 public:
  NandModel(sim::Simulation* sim, const NandConfig& config,
            std::string name = "nand");

  // Occupies `channel` for the transfer time of `bytes` plus the array
  // read latency. `bytes` is rounded up to whole pages (read amplification
  // at page granularity is real and intentional). `act` attributes the
  // channel service time in the aggregate meter; it never changes timing.
  sim::Task<void> Read(std::uint32_t channel, std::uint64_t bytes,
                       sim::Activity act = sim::Activity::kOther);

  // Same for programming (writing).
  sim::Task<void> Program(std::uint32_t channel, std::uint64_t bytes,
                          sim::Activity act = sim::Activity::kOther);

  // Erase queues a zero-byte transfer on `channel` (so it waits for the
  // transfers ahead of it but holds the channel for no time), then waits
  // the erase latency off the channel, in the array. Erases on one channel
  // therefore overlap each other and that channel's reads and programs.
  sim::Task<void> Erase(std::uint32_t channel,
                        sim::Activity act = sim::Activity::kOther);

  // Aggregate per-activity occupancy across ALL channels, in
  // channel-equivalents: capacity() = the channel count.
  const sim::ResourceMeter& meter() const { return meter_; }

  const NandConfig& config() const { return config_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t erases() const { return erases_; }

  std::uint64_t RoundUpToPages(std::uint64_t bytes) const {
    const std::uint64_t page = config_.page_size;
    return (bytes + page - 1) / page * page;
  }

 private:
  sim::Simulation* sim_;
  NandConfig config_;
  sim::ResourceMeter meter_;
  std::vector<std::unique_ptr<sim::BandwidthResource>> channels_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t erases_ = 0;
};

}  // namespace kvcsd::storage
