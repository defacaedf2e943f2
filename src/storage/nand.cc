#include "storage/nand.h"

#include <cassert>

namespace kvcsd::storage {

NandModel::NandModel(sim::Simulation* sim, const NandConfig& config,
                     std::string name)
    : sim_(sim),
      config_(config),
      meter_(sim, name, static_cast<double>(config.channels)) {
  assert(config_.channels > 0);
  channels_.reserve(config_.channels);
  for (std::uint32_t c = 0; c < config_.channels; ++c) {
    channels_.push_back(std::make_unique<sim::BandwidthResource>(
        sim_, name + ".ch" + std::to_string(c),
        config_.channel_bytes_per_sec, Tick{0},
        sim::Layers{sim::Layer::kNandWait, sim::Layer::kNand}));
    channels_.back()->set_meter(&meter_);
  }
}

sim::Task<void> NandModel::Read(std::uint32_t channel, std::uint64_t bytes,
                                sim::Activity act) {
  assert(channel < config_.channels);
  const std::uint64_t page_bytes = RoundUpToPages(bytes);
  bytes_read_ += page_bytes;
  co_await channels_[channel]->Transfer(page_bytes, act);
  co_await sim_->Delay(config_.read_latency);
  sim::Ledger* ledger = co_await sim::CurrentLedger();
  if (ledger != nullptr) ledger->Book(sim::Layer::kNand, sim_->Now());
}

sim::Task<void> NandModel::Program(std::uint32_t channel, std::uint64_t bytes,
                                   sim::Activity act) {
  assert(channel < config_.channels);
  const std::uint64_t page_bytes = RoundUpToPages(bytes);
  bytes_written_ += page_bytes;
  co_await channels_[channel]->Transfer(page_bytes, act);
  co_await sim_->Delay(config_.program_latency);
  sim::Ledger* ledger = co_await sim::CurrentLedger();
  if (ledger != nullptr) ledger->Book(sim::Layer::kNand, sim_->Now());
}

sim::Task<void> NandModel::Erase(std::uint32_t channel, sim::Activity act) {
  assert(channel < config_.channels);
  ++erases_;
  co_await channels_[channel]->Transfer(0, act);
  co_await sim_->Delay(config_.erase_latency);
  sim::Ledger* ledger = co_await sim::CurrentLedger();
  if (ledger != nullptr) ledger->Book(sim::Layer::kNand, sim_->Now());
}

}  // namespace kvcsd::storage
