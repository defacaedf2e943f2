// Raw host-side round trips on a QueueSet, below the client library: for
// tests that drive the wire protocol directly (queue mechanics, opcodes
// the client never emits).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "nvme/queue.h"
#include "sim/task.h"

namespace kvcsd::testutil {

// Submits `command` alone on `pair`; its completion lands on `ring`.
inline sim::Task<std::shared_ptr<nvme::ReplyState>> SubmitOne(
    nvme::QueuePair* pair, nvme::Command command, nvme::CqRing* ring) {
  std::vector<nvme::Command> batch;
  batch.push_back(std::move(command));
  std::vector<std::shared_ptr<nvme::ReplyState>> states =
      co_await pair->Submit(std::move(batch), ring);
  co_return states.front();
}

// Submits a batch of one on pair 0 and reaps its completion off a private
// CQ ring.
inline sim::Task<nvme::Completion> RoundTrip(nvme::QueueSet* set,
                                             nvme::Command command) {
  nvme::CqRing ring(set->sim());
  std::shared_ptr<nvme::ReplyState> state =
      co_await SubmitOne(set->pair(0), std::move(command), &ring);
  std::shared_ptr<nvme::ReplyState> reaped = co_await ring.Pop();
  EXPECT_EQ(reaped, state);
  co_return std::move(reaped->completion);
}

}  // namespace kvcsd::testutil
