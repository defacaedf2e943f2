// Conventional (non-zoned) NVMe SSD timing model for the host side.
//
// The host filesystem (src/hostenv) keeps file payloads itself; this class
// accounts only for device time and traffic statistics. Requests are
// striped over NAND channels at `stripe_size` granularity, mirroring how a
// conventional SSD spreads an LBA range, so large sequential I/O enjoys
// channel parallelism while small random I/O pays per-page latency — the
// asymmetry the paper's read-amplification argument rests on.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/nand.h"

namespace kvcsd::storage {

struct BlockSsdConfig {
  NandConfig nand;
  std::uint64_t stripe_size = KiB(128);
};

class BlockSsd {
 public:
  BlockSsd(sim::Simulation* sim, const BlockSsdConfig& config);

  // Device time for reading `bytes` starting at device offset `offset`.
  sim::Task<void> Read(std::uint64_t offset, std::uint64_t bytes);

  // Device time for writing.
  sim::Task<void> Write(std::uint64_t offset, std::uint64_t bytes);

  // Flush barrier: models the device draining its write cache.
  sim::Task<void> Flush();

  const BlockSsdConfig& config() const { return config_; }
  std::uint64_t total_bytes_read() const { return bytes_read_; }
  std::uint64_t total_bytes_written() const { return bytes_written_; }
  std::uint64_t total_read_ops() const { return read_ops_; }

 private:
  // Splits [offset, offset+bytes) into per-channel chunks and performs them
  // in parallel, completing when the slowest chunk finishes.
  sim::Task<void> DoStriped(std::uint64_t offset, std::uint64_t bytes,
                            bool is_write);

  sim::Simulation* sim_;
  BlockSsdConfig config_;
  NandModel nand_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t read_ops_ = 0;
};

}  // namespace kvcsd::storage
