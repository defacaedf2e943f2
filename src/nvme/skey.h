// Order-preserving secondary-key encodings shared by the device (index
// construction) and the client (query bound construction). The encoded
// form compares with memcmp in the same order as the typed value.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/keys.h"
#include "common/status.h"
#include "nvme/command.h"

namespace kvcsd::nvme {

inline std::string EncodeSecondaryU32(std::uint32_t v) {
  std::string out;
  AppendBigEndian32(&out, v);
  return out;
}
inline std::string EncodeSecondaryU64(std::uint64_t v) {
  std::string out;
  AppendBigEndian64(&out, v);
  return out;
}
inline std::string EncodeSecondaryI32(std::int32_t v) {
  std::string out;
  AppendBigEndian32(&out, OrderEncodeI32(v));
  return out;
}
inline std::string EncodeSecondaryF32(float v) {
  std::string out;
  AppendBigEndian32(&out, OrderEncodeF32(v));
  return out;
}
inline std::string EncodeSecondaryF64(double v) {
  std::string out;
  AppendBigEndian64(&out, OrderEncodeF64(v));
  return out;
}

// Builds a pushdown predicate over a float32 value attribute, with the
// bound pre-encoded exactly the way the device compares it (the same
// order encoding secondary-range bounds use).
inline ValuePredicate PredicateF32(PredicateOp op, std::uint32_t value_offset,
                                   float bound) {
  ValuePredicate pred;
  pred.op = op;
  pred.value_offset = value_offset;
  pred.value_length = 4;
  pred.type = SecondaryKeyType::kF32;
  pred.operand = EncodeSecondaryF32(bound);
  return pred;
}

// Byte-wise predicate: memcmp order over the raw attribute bytes.
inline ValuePredicate PredicateBytes(PredicateOp op,
                                     std::uint32_t value_offset,
                                     std::string operand) {
  ValuePredicate pred;
  pred.op = op;
  pred.value_offset = value_offset;
  pred.value_length = static_cast<std::uint32_t>(operand.size());
  pred.type = SecondaryKeyType::kBytes;
  pred.operand = std::move(operand);
  return pred;
}

// Encodes the raw little-endian bytes of a stored value's key range (what
// the device extracts during index construction).
inline Result<std::string> EncodeSecondaryKeyBytes(
    const Slice& raw, const SecondaryIndexSpec& spec) {
  auto need = [&raw, &spec](std::uint32_t n) {
    return spec.value_length == n && raw.size() == n;
  };
  switch (spec.type) {
    case SecondaryKeyType::kU32:
      if (!need(4)) return Status::InvalidArgument("u32 key needs 4 bytes");
      return EncodeSecondaryU32(DecodeFixed32(raw.data()));
    case SecondaryKeyType::kU64:
      if (!need(8)) return Status::InvalidArgument("u64 key needs 8 bytes");
      return EncodeSecondaryU64(DecodeFixed64(raw.data()));
    case SecondaryKeyType::kI32:
      if (!need(4)) return Status::InvalidArgument("i32 key needs 4 bytes");
      return EncodeSecondaryI32(
          static_cast<std::int32_t>(DecodeFixed32(raw.data())));
    case SecondaryKeyType::kF32:
      if (!need(4)) return Status::InvalidArgument("f32 key needs 4 bytes");
      return EncodeSecondaryF32(std::bit_cast<float>(
          DecodeFixed32(raw.data())));
    case SecondaryKeyType::kF64:
      if (!need(8)) return Status::InvalidArgument("f64 key needs 8 bytes");
      return EncodeSecondaryF64(std::bit_cast<double>(
          DecodeFixed64(raw.data())));
    case SecondaryKeyType::kBytes:
      return raw.ToString();
  }
  return Status::InvalidArgument("unknown secondary key type");
}

// The exact inverse of EncodeSecondaryKeyBytes: the raw little-endian
// value bytes an order-encoded secondary key was made from. Every order
// encoding is a bijection on bit patterns, so -0.0, NaN payloads and
// denormals come back bit for bit.
inline Result<std::string> DecodeSecondaryKeyBytes(
    const Slice& skey, const SecondaryIndexSpec& spec) {
  auto need = [&skey, &spec](std::uint32_t n) {
    return spec.value_length == n && skey.size() == n;
  };
  std::string raw;
  switch (spec.type) {
    case SecondaryKeyType::kU32:
      if (!need(4)) return Status::InvalidArgument("u32 key needs 4 bytes");
      PutFixed32(&raw, ReadBigEndian32(skey.data()));
      return raw;
    case SecondaryKeyType::kU64:
      if (!need(8)) return Status::InvalidArgument("u64 key needs 8 bytes");
      PutFixed64(&raw, ReadBigEndian64(skey.data()));
      return raw;
    case SecondaryKeyType::kI32:
      if (!need(4)) return Status::InvalidArgument("i32 key needs 4 bytes");
      PutFixed32(&raw, static_cast<std::uint32_t>(
                           OrderDecodeI32(ReadBigEndian32(skey.data()))));
      return raw;
    case SecondaryKeyType::kF32:
      if (!need(4)) return Status::InvalidArgument("f32 key needs 4 bytes");
      PutFixed32(&raw, std::bit_cast<std::uint32_t>(
                           OrderDecodeF32(ReadBigEndian32(skey.data()))));
      return raw;
    case SecondaryKeyType::kF64:
      if (!need(8)) return Status::InvalidArgument("f64 key needs 8 bytes");
      PutFixed64(&raw, std::bit_cast<std::uint64_t>(
                           OrderDecodeF64(ReadBigEndian64(skey.data()))));
      return raw;
    case SecondaryKeyType::kBytes:
      return skey.ToString();
  }
  return Status::InvalidArgument("unknown secondary key type");
}

// One past the last value byte a secondary key occupies. 64-bit, so an
// offset near UINT32_MAX cannot wrap back inside a short value.
inline std::uint64_t SecondaryKeyEnd(const SecondaryIndexSpec& spec) {
  return std::uint64_t{spec.value_offset} + spec.value_length;
}

// The one secondary-key extractor: the order-encoded key a stored value
// carries at the spec's byte range (index builds, folds, delta tuples of
// a secondary scan, and the router's merge keys).
inline Result<std::string> ExtractSecondaryKey(
    const Slice& value, const SecondaryIndexSpec& spec) {
  if (SecondaryKeyEnd(spec) > value.size()) {
    return Status::InvalidArgument("secondary key range beyond value");
  }
  return EncodeSecondaryKeyBytes(
      Slice(value.data() + spec.value_offset, spec.value_length), spec);
}

}  // namespace kvcsd::nvme
