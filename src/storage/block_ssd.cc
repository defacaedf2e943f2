#include "storage/block_ssd.h"

namespace kvcsd::storage {

BlockSsd::BlockSsd(sim::Simulation* sim, const BlockSsdConfig& config)
    : sim_(sim), config_(config), nand_(sim, config.nand, "blk") {}

sim::Task<void> BlockSsd::DoStriped(std::uint64_t offset, std::uint64_t bytes,
                                    bool is_write) {
  if (bytes == 0) co_return;
  const std::uint64_t stripe = config_.stripe_size;
  const std::uint32_t channels = config_.nand.channels;

  sim::WaitGroup wg(sim_);
  std::uint64_t cursor = offset;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t in_stripe = stripe - (cursor % stripe);
    const std::uint64_t chunk = remaining < in_stripe ? remaining : in_stripe;
    const std::uint32_t channel =
        static_cast<std::uint32_t>((cursor / stripe) % channels);
    wg.Add(1);
    sim_->Spawn([](NandModel* nand, sim::WaitGroup* group,
                   std::uint32_t ch, std::uint64_t n,
                   bool write) -> sim::Task<void> {
      if (write) {
        co_await nand->Program(ch, n);
      } else {
        co_await nand->Read(ch, n);
      }
      group->Done();
    }(&nand_, &wg, channel, chunk, is_write));
    cursor += chunk;
    remaining -= chunk;
  }
  co_await wg.Wait();
}

sim::Task<void> BlockSsd::Read(std::uint64_t offset, std::uint64_t bytes) {
  bytes_read_ += bytes;
  ++read_ops_;
  co_await DoStriped(offset, bytes, /*is_write=*/false);
}

sim::Task<void> BlockSsd::Write(std::uint64_t offset, std::uint64_t bytes) {
  bytes_written_ += bytes;
  co_await DoStriped(offset, bytes, /*is_write=*/true);
}

sim::Task<void> BlockSsd::Flush() {
  // A flush drains in-flight channel work; model as a fixed small barrier.
  co_await sim_->Delay(Microseconds(20));
}

}  // namespace kvcsd::storage
