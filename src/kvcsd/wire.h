// On-flash record formats shared by the write path, the compactor, and
// the query engine.
//
//   KLOG entry   := varint32 klen | key | fixed64 vaddr | varint32 vlen |
//                   varint64 seq | uint8 flags
//   KLOG frame   := fixed32 magic | fixed32 masked_crc | varint32 len |
//                   len bytes of KLOG entries (one frame per flush batch)
//
// `seq` is the keyspace-wide mutation sequence assigned at PUT/DELETE
// admission. Up to kMaxInflightFlushes flush batches are in flight at
// once, so KLOG append order is NOT admission order — last-writer-wins
// resolution (compaction dedupe, delta replay) always compares seq, never
// log position. flags bit 0 marks a tombstone (a point DELETE); tombstone
// entries carry vaddr = 0, vlen = 0.
//   PIDX block   := fixed16 count | count * (varint32 klen | key |
//                   fixed64 vaddr | varint32 vlen) | zero pad to 4 KB
//   SIDX block   := fixed16 count | count * (varint32 sklen | skey_enc |
//                   varint32 pklen | pkey | fixed64 vaddr | varint32 vlen)
//                   | zero pad to 4 KB
//
// skey_enc is the order-preserving encoding of the typed secondary key
// (common/keys.h), so memcmp order == numeric order.
//
// KLOG frames exist for crash consistency: the CRC lives in the frame
// HEADER, so a power cut mid-append always yields an incomplete payload
// (a torn tail recovery silently drops), never a frame that parses but
// carries garbage. A complete frame whose CRC mismatches is genuine
// corruption.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"

namespace kvcsd::device::wire {

// The bytes of a serialized record, as the flash append APIs take them.
inline std::span<const std::byte> AsBytes(const std::string& s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
}

constexpr std::uint8_t kKlogFlagTombstone = 0x01;

inline void AppendKlogEntry(std::string* out, const Slice& key,
                            std::uint64_t vaddr, std::uint32_t vlen,
                            std::uint64_t seq, bool tombstone = false) {
  PutVarint32(out, static_cast<std::uint32_t>(key.size()));
  out->append(key.data(), key.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
  PutVarint64(out, seq);
  out->push_back(static_cast<char>(tombstone ? kKlogFlagTombstone : 0));
}

struct ParsedKlogEntry {
  Slice key;
  std::uint64_t vaddr;
  std::uint32_t vlen;
  std::uint64_t seq;
  bool tombstone;
};

inline bool ParseKlogEntry(Slice* in, ParsedKlogEntry* out) {
  std::uint32_t klen = 0;
  if (!GetVarint32(in, &klen) || in->size() < klen) return false;
  out->key = Slice(in->data(), klen);
  in->remove_prefix(klen);
  if (!GetFixed64(in, &out->vaddr) || !GetVarint32(in, &out->vlen)) {
    return false;
  }
  if (!GetVarint64(in, &out->seq) || in->empty()) return false;
  out->tombstone =
      (static_cast<std::uint8_t>((*in)[0]) & kKlogFlagTombstone) != 0;
  in->remove_prefix(1);
  return true;
}

// --- KLOG frames ---

constexpr std::uint32_t kKlogFrameMagic = 0x4b4c4f47;  // "KLOG"

// Wraps one flush batch of KLOG entries in a framed record.
inline void AppendKlogFrame(std::string* out, const Slice& payload) {
  PutFixed32(out, kKlogFrameMagic);
  PutFixed32(out,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutVarint32(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

enum class KlogFrameResult : std::uint8_t {
  kFrame = 0,   // *payload holds one complete, CRC-verified frame
  kNeedMore,    // input ends mid-frame (torn tail or short read)
  kBadMagic,    // not a frame boundary — corruption
  kBadCrc,      // complete frame, payload does not match its CRC
};

// Consumes one frame from *in. On kFrame the frame is consumed and
// *payload aliases *in's buffer; on kNeedMore nothing is consumed (the
// caller fetches more bytes or treats the remainder as a torn tail); on
// kBadMagic/kBadCrc nothing is consumed.
inline KlogFrameResult ParseKlogFrame(Slice* in, Slice* payload) {
  if (in->size() < 8) return KlogFrameResult::kNeedMore;
  Slice probe = *in;
  std::uint32_t magic = 0, masked_crc = 0, len = 0;
  GetFixed32(&probe, &magic);
  if (magic != kKlogFrameMagic) return KlogFrameResult::kBadMagic;
  GetFixed32(&probe, &masked_crc);
  if (!GetVarint32(&probe, &len)) {
    // A varint32 needs at most 5 bytes; fewer available means the header
    // itself is torn, more means it is garbage.
    return probe.size() < 5 ? KlogFrameResult::kNeedMore
                            : KlogFrameResult::kBadMagic;
  }
  if (probe.size() < len) return KlogFrameResult::kNeedMore;
  Slice body(probe.data(), len);
  if (crc32c::Unmask(masked_crc) !=
      crc32c::Value(body.data(), body.size())) {
    return KlogFrameResult::kBadCrc;
  }
  *payload = body;
  in->remove_prefix(static_cast<std::size_t>(probe.data() - in->data()) +
                    len);
  return KlogFrameResult::kFrame;
}

// --- PIDX ---

struct PidxEntry {
  static constexpr const char* kKind = "PIDX";
  Slice key;
  std::uint64_t vaddr;
  std::uint32_t vlen;
};

inline std::size_t PidxEntrySize(const Slice& key) {
  return static_cast<std::size_t>(VarintLength(key.size())) + key.size() +
         8 + 5;  // worst-case vlen varint
}

inline void AppendPidxEntry(std::string* out, const Slice& key,
                            std::uint64_t vaddr, std::uint32_t vlen) {
  PutVarint32(out, static_cast<std::uint32_t>(key.size()));
  out->append(key.data(), key.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
}

inline bool ParseIndexEntry(Slice* in, PidxEntry* out) {
  std::uint32_t klen = 0;
  if (!GetVarint32(in, &klen) || in->size() < klen) return false;
  out->key = Slice(in->data(), klen);
  in->remove_prefix(klen);
  return GetFixed64(in, &out->vaddr) && GetVarint32(in, &out->vlen);
}

// --- SIDX ---

// SIDX blocks are written by compaction in nondecreasing (skey, pkey)
// order (SidxOrder): entries sort by the order-encoded secondary key
// first, with the primary key breaking ties. Readers depend on this — a
// secondary range scan with a row limit cuts the result at the limit, so
// when many rows share the boundary secondary key, the survivors are
// deterministically the ones with the smallest primary keys. The range
// scans' sketch walk asserts the invariant and fails Corruption on
// violation.
struct SidxEntry {
  static constexpr const char* kKind = "SIDX";
  Slice skey;  // order-encoded secondary key
  Slice pkey;
  std::uint64_t vaddr;
  std::uint32_t vlen;
};

inline std::size_t SidxEntrySize(const Slice& skey, const Slice& pkey) {
  return static_cast<std::size_t>(VarintLength(skey.size())) + skey.size() +
         static_cast<std::size_t>(VarintLength(pkey.size())) + pkey.size() +
         8 + 5;
}

inline void AppendSidxEntry(std::string* out, const Slice& skey,
                            const Slice& pkey, std::uint64_t vaddr,
                            std::uint32_t vlen) {
  PutVarint32(out, static_cast<std::uint32_t>(skey.size()));
  out->append(skey.data(), skey.size());
  PutVarint32(out, static_cast<std::uint32_t>(pkey.size()));
  out->append(pkey.data(), pkey.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
}

inline bool ParseIndexEntry(Slice* in, SidxEntry* out) {
  std::uint32_t sklen = 0;
  if (!GetVarint32(in, &sklen) || in->size() < sklen) return false;
  out->skey = Slice(in->data(), sklen);
  in->remove_prefix(sklen);
  std::uint32_t pklen = 0;
  if (!GetVarint32(in, &pklen) || in->size() < pklen) return false;
  out->pkey = Slice(in->data(), pklen);
  in->remove_prefix(pklen);
  return GetFixed64(in, &out->vaddr) && GetVarint32(in, &out->vlen);
}

// Index blocks start with a fixed16 entry count.
inline void BeginIndexBlock(std::string* block) {
  block->clear();
  PutFixed16(block, 0);  // patched by FinishIndexBlock
}

// Validates the block header before any entry is decoded: readers must
// not trust a fetched block's bytes (injected errors and crashes can hand
// them garbage). Returns false when the block is too small to hold its
// own header; *entries then must not be read.
inline bool OpenIndexBlock(const std::string& block, std::uint16_t* count,
                           Slice* entries) {
  if (block.size() < 2) return false;
  *count = DecodeFixed16(block.data());
  *entries = Slice(block.data() + 2, block.size() - 2);
  return true;
}

// The one index-block decoder: hands every entry of a PIDX or SIDX block
// (Entry = PidxEntry or SidxEntry), in block order, to `visit`, stopping
// early once `visit` returns false. The entries alias `block`. A block
// too small for its header or holding an unparsable entry is Corruption.
template <typename Entry, typename Visit>
Status ForEachIndexEntry(const std::string& block, Visit&& visit) {
  std::uint16_t count = 0;
  Slice in;
  if (!OpenIndexBlock(block, &count, &in)) {
    return Status::Corruption(std::string("undersized ") + Entry::kKind +
                              " block");
  }
  for (std::uint16_t i = 0; i < count; ++i) {
    Entry entry;
    if (!ParseIndexEntry(&in, &entry)) {
      return Status::Corruption(std::string("bad ") + Entry::kKind + " block");
    }
    if (!visit(entry)) break;
  }
  return Status::Ok();
}

inline void FinishIndexBlock(std::string* block, std::uint16_t count,
                             std::uint32_t block_size) {
  EncodeFixed16(block->data(), count);
  block->resize(block_size, '\0');
}

// SORTED_VALUES bytes [lo, hi) that one flash read fetches.
struct ValueSpan {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const ValueSpan&) const = default;
};

// Values whose gap is at most this are read as one range: reading the gap
// costs less than a second read. The value gather and the value spans of
// PIDX sketch entries both coalesce by it.
inline constexpr std::uint64_t kMaxValueGap = 4096;

// Sorts `values` by address and coalesces them into the spans that cover
// them, one read each: a value joins the open span while it starts at
// most kMaxValueGap past the span's end and ends in the span's zone.
inline std::vector<ValueSpan> CoalesceValueSpans(
    std::vector<ValueSpan>* values, std::uint64_t zone_size) {
  std::sort(values->begin(), values->end(),
            [](const ValueSpan& a, const ValueSpan& b) { return a.lo < b.lo; });
  std::vector<ValueSpan> spans;
  for (const ValueSpan& v : *values) {
    if (!spans.empty()) {
      ValueSpan& open = spans.back();
      const std::uint64_t zone_end = (open.lo / zone_size + 1) * zone_size;
      if (v.lo <= open.hi + kMaxValueGap && v.hi <= zone_end) {
        open.hi = std::max(open.hi, v.hi);
        continue;
      }
    }
    spans.push_back(v);
  }
  return spans;
}

// One closed index block's sketch data: its pivot (its first key: the
// primary key for PIDX, the encoded secondary key for SIDX) and, for a
// PIDX block, the value spans that cover every non-empty value its
// entries point to (CoalesceValueSpans: one per zone unless a gap splits
// it). SIDX blocks carry no span.
struct PackedBlock {
  std::string pivot;
  std::vector<ValueSpan> spans;
};

// Packs index entries, in order, into fixed-size blocks. A block closes
// when the next entry's worst-case size no longer fits; closed blocks
// collect back to back until the caller takes them for one append, along
// with each block's PackedBlock.
class IndexBlockPacker {
 public:
  // `zone_size` bounds the value spans: no span crosses a zone boundary.
  IndexBlockPacker(std::uint32_t block_size, std::uint64_t zone_size)
      : block_size_(block_size), zone_size_(zone_size) {
    BeginIndexBlock(&block_);
  }

  void AddPidx(const Slice& key, std::uint64_t vaddr, std::uint32_t vlen) {
    Reserve(PidxEntrySize(key), key);
    AppendPidxEntry(&block_, key, vaddr, vlen);
    if (vlen > 0) values_.push_back(ValueSpan{vaddr, vaddr + vlen});
  }
  void AddSidx(const Slice& skey, const Slice& pkey, std::uint64_t vaddr,
               std::uint32_t vlen) {
    Reserve(SidxEntrySize(skey, pkey), skey);
    AppendSidxEntry(&block_, skey, pkey, vaddr, vlen);
  }

  // Closes the open block; no-op when it holds no entry.
  void Close() {
    if (count_ == 0) return;
    FinishIndexBlock(&block_, count_, block_size_);
    closed_ += block_;
    open_.spans = CoalesceValueSpans(&values_, zone_size_);
    values_.clear();
    blocks_.push_back(std::move(open_));
    BeginIndexBlock(&block_);
    count_ = 0;
    open_ = PackedBlock{};
  }

  // Bytes of closed blocks not yet taken.
  std::size_t closed_bytes() const { return closed_.size(); }

  // Hands over the sketch data of the blocks closed since the last call;
  // their bytes stay until TakeBytes().
  std::vector<PackedBlock> TakeBlocks() { return std::exchange(blocks_, {}); }
  // Hands over the closed blocks' bytes, concatenated.
  std::string TakeBytes() { return std::exchange(closed_, {}); }

 private:
  void Reserve(std::size_t entry_size, const Slice& pivot) {
    if (block_.size() + entry_size > block_size_) Close();
    if (count_ == 0) open_.pivot = pivot.ToString();
    ++count_;
  }

  std::uint32_t block_size_;
  std::uint64_t zone_size_;
  std::string block_;  // the open block
  std::uint16_t count_ = 0;
  PackedBlock open_;  // the open block's sketch data
  std::vector<ValueSpan> values_;  // the open block's non-empty values
  std::string closed_;
  std::vector<PackedBlock> blocks_;
};

// --- pushdown (kKvSelect / kKvAggregate) ---

// Extracts the attribute byte range a predicate or aggregate addresses.
// Returns false when the value is too short to hold it — such a record is
// skipped (and counted by the caller), never an error: heterogeneous
// value sizes are legal in one keyspace.
inline bool ExtractAttribute(const Slice& value, std::uint32_t offset,
                             std::uint32_t length, Slice* out) {
  const std::uint64_t end = std::uint64_t{offset} + length;
  if (end > value.size()) return false;
  *out = Slice(value.data() + offset, length);
  return true;
}

// Clamps a projection range to the bytes the value actually holds: a
// range starting at or past the end projects zero bytes, one reaching
// past the end is trimmed to what exists.
inline Slice ClampProjection(const Slice& value, std::uint32_t offset,
                             std::uint32_t length) {
  if (offset >= value.size()) return Slice(value.data(), 0);
  const std::size_t avail = value.size() - offset;
  return Slice(value.data() + offset,
               std::min<std::size_t>(length, avail));
}

}  // namespace kvcsd::device::wire
