#include "lsm/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace kvcsd::lsm {

sim::Task<Status> WalWriter::AddRecord(const Slice& payload) {
  std::string record;
  record.reserve(4 + 10 + payload.size());
  PutFixed32(&record,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutVarint64(&record, payload.size());
  record.append(payload.data(), payload.size());
  bytes_written_ += record.size();
  co_return co_await fs_->Append(
      file_, std::span<const std::byte>(
                 reinterpret_cast<const std::byte*>(record.data()),
                 record.size()));
}

sim::Task<Result<std::vector<std::string>>> WalReader::ReadAll() {
  auto size = fs_->FileSize(name_);
  if (!size.ok()) co_return size.status();
  auto handle = fs_->Open(name_);
  if (!handle.ok()) co_return handle.status();

  std::string buf(*size, '\0');
  if (*size > 0) {
    Status s = co_await fs_->Pread(
        *handle, 0,
        std::span<std::byte>(reinterpret_cast<std::byte*>(buf.data()),
                             buf.size()));
    if (!s.ok()) co_return s;
  }

  std::vector<std::string> records;
  Slice in(buf);
  while (!in.empty()) {
    std::uint32_t masked_crc = 0;
    std::uint64_t len = 0;
    if (!GetFixed32(&in, &masked_crc) || !GetVarint64(&in, &len) ||
        in.size() < len) {
      break;  // truncated tail: an in-flight write at crash time
    }
    Slice payload(in.data(), len);
    in.remove_prefix(len);
    if (crc32c::Unmask(masked_crc) !=
        crc32c::Value(payload.data(), payload.size())) {
      break;  // corrupt tail
    }
    records.emplace_back(payload.ToString());
  }
  co_return records;
}

}  // namespace kvcsd::lsm
