// Write-ahead log: checksummed, length-prefixed records appended to a
// filesystem file. Record format:
//
//   record := fixed32 masked_crc32c(payload) | varint64 len | payload
//
// The reader stops at the first corrupt or truncated record, returning the
// records recovered so far — the standard crash-recovery contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "hostenv/fs.h"
#include "sim/task.h"

namespace kvcsd::lsm {

class WalWriter {
 public:
  WalWriter(hostenv::Fs* fs, hostenv::FileHandle file)
      : fs_(fs), file_(file) {}

  sim::Task<Status> AddRecord(const Slice& payload);

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  hostenv::Fs* fs_;
  hostenv::FileHandle file_;
  std::uint64_t bytes_written_ = 0;
};

class WalReader {
 public:
  WalReader(hostenv::Fs* fs, std::string name)
      : fs_(fs), name_(std::move(name)) {}

  // Reads every intact record in order. A trailing corrupt/partial record
  // ends recovery silently (it was an in-flight write at crash time).
  sim::Task<Result<std::vector<std::string>>> ReadAll();

 private:
  hostenv::Fs* fs_;
  std::string name_;
};

}  // namespace kvcsd::lsm
