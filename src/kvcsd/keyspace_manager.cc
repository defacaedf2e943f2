#include "kvcsd/keyspace_manager.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "kvcsd/wire.h"
#include "sim/fault.h"
#include "sim/sync.h"

namespace kvcsd::device {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4b534e41;  // "KSNA"
constexpr std::uint32_t kBlobMagic = 0x4b53424c;      // "KSBL"

void PutString(std::string* out, const std::string& s) {
  PutLengthPrefixedSlice(out, Slice(s));
}

bool GetString(Slice* in, std::string* out) {
  Slice s;
  if (!GetLengthPrefixedSlice(in, &s)) return false;
  *out = s.ToString();
  return true;
}

void PutClusterVec(std::string* out, const std::vector<ClusterId>& v) {
  PutVarint64(out, v.size());
  for (ClusterId id : v) PutVarint64(out, id);
}

bool GetClusterVec(Slice* in, std::vector<ClusterId>* v) {
  std::uint64_t n = 0;
  if (!GetVarint64(in, &n)) return false;
  v->resize(n);
  for (auto& id : *v) {
    if (!GetVarint64(in, &id)) return false;
  }
  return true;
}

// Addresses are stored as zigzag varint deltas: a block from the previous
// entry's block end, a value span from the previous span's end. A sketch's
// blocks, and the values they point to, mostly follow one another, so
// most deltas cost one byte.
void PutDelta(std::string* out, std::uint64_t value, std::uint64_t base) {
  const auto delta = static_cast<std::int64_t>(value - base);
  PutVarint64(out, (static_cast<std::uint64_t>(delta) << 1) ^
                       static_cast<std::uint64_t>(delta >> 63));
}

bool GetDelta(Slice* in, std::uint64_t base, std::uint64_t* value) {
  std::uint64_t zigzag = 0;
  if (!GetVarint64(in, &zigzag)) return false;
  *value = base + ((zigzag >> 1) ^ (0 - (zigzag & 1)));
  return true;
}

void PutBlobRef(std::string* out, const BlobRef& ref) {
  PutVarint64(out, ref.cluster);
  PutVarint64(out, ref.addr);
  PutVarint32(out, ref.len);
  PutFixed32(out, ref.crc);
}

bool GetBlobRef(Slice* in, BlobRef* ref) {
  return GetVarint64(in, &ref->cluster) && GetVarint64(in, &ref->addr) &&
         GetVarint32(in, &ref->len) && GetFixed32(in, &ref->crc);
}

}  // namespace

void PutSketch(std::string* out, const std::vector<SketchEntry>& sketch) {
  PutVarint64(out, sketch.size());
  std::uint64_t block_end = 0;
  std::uint64_t value_end = 0;
  for (const auto& e : sketch) {
    PutString(out, e.pivot);
    PutDelta(out, e.block_addr, block_end);
    PutVarint32(out, e.block_len);
    PutVarint64(out, e.spans.size());
    for (const wire::ValueSpan& span : e.spans) {
      PutDelta(out, span.lo, value_end);
      PutVarint64(out, span.hi - span.lo);
      value_end = span.hi;
    }
    block_end = e.block_addr + e.block_len;
  }
}

bool GetSketch(Slice* in, std::vector<SketchEntry>* sketch) {
  // Every entry takes at least one byte, every span two: a count larger
  // than the bytes left is corrupt, and must not size an allocation.
  std::uint64_t n = 0;
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  sketch->resize(n);
  std::uint64_t block_end = 0;
  std::uint64_t value_end = 0;
  for (auto& e : *sketch) {
    std::uint64_t spans = 0;
    if (!GetString(in, &e.pivot) || !GetDelta(in, block_end, &e.block_addr) ||
        !GetVarint32(in, &e.block_len) || !GetVarint64(in, &spans) ||
        spans > in->size()) {
      return false;
    }
    e.spans.resize(spans);
    for (wire::ValueSpan& span : e.spans) {
      std::uint64_t len = 0;
      if (!GetDelta(in, value_end, &span.lo) || !GetVarint64(in, &len)) {
        return false;
      }
      span.hi = span.lo + len;
      value_end = span.hi;
    }
    block_end = e.block_addr + e.block_len;
  }
  return true;
}

struct KeyspaceManager::PersistRequest {
  explicit PersistRequest(sim::Simulation* sim) : wake(sim) {}
  sim::Event wake;
  bool done = false;
  Status status;
};

Result<Keyspace*> KeyspaceManager::Create(const std::string& name) {
  if (name.size() > kMaxNameBytes) {
    return Status::InvalidArgument("keyspace name longer than " +
                                   std::to_string(kMaxNameBytes) + " bytes");
  }
  for (const char c : name) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '.' || byte < 0x20 || byte == 0x7f) {
      return Status::InvalidArgument(
          "keyspace name holds a '.' or a control character");
    }
  }
  if (by_name_.contains(name)) {
    return Status::AlreadyExists("keyspace exists: " + name);
  }
  auto ks = std::make_unique<Keyspace>(ssd_->sim());
  ks->id = next_id_++;
  ks->name = name;
  Keyspace* ptr = ks.get();
  by_name_[name] = ks->id;
  by_id_[ks->id] = std::move(ks);
  return ptr;
}

Result<Keyspace*> KeyspaceManager::Find(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no such keyspace: " + name);
  }
  return by_id_.at(it->second).get();
}

Result<Keyspace*> KeyspaceManager::FindById(std::uint64_t id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("no such keyspace id");
  }
  return it->second.get();
}

Status KeyspaceManager::Erase(std::uint64_t id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such keyspace id");
  by_name_.erase(it->second->name);
  by_id_.erase(it);
  return Status::Ok();
}

std::string KeyspaceManager::SerializeTable(std::uint64_t seq) const {
  std::string body;
  PutVarint64(&body, seq);
  body.push_back(zones_ != nullptr ? 1 : 0);
  if (zones_ != nullptr) {
    std::string zm;
    zones_->SerializeTo(&zm);
    PutLengthPrefixedSlice(&body, Slice(zm));
  }
  PutVarint64(&body, next_id_);
  PutVarint64(&body, by_id_.size());
  for (const auto& [id, ks] : by_id_) {
    PutVarint64(&body, ks->id);
    PutString(&body, ks->name);
    body.push_back(static_cast<char>(ks->state));
    // Deferred-drop tombstone: a drop acknowledged while compaction or
    // pinned handlers were still running. Persisted so recovery can
    // complete the drop if power dies before the deferred FinishDrop.
    body.push_back(ks->pending_delete ? 1 : 0);
    // Only what recovery reads back: the counts and bytes the logs imply
    // are replayed or read off the write pointers (DESIGN.md §8).
    PutVarint64(&body, ks->run_entries);
    PutClusterVec(&body, ks->klog_clusters);
    PutClusterVec(&body, ks->vlog_clusters);
    PutClusterVec(&body, ks->pidx_clusters);
    PutClusterVec(&body, ks->sorted_value_clusters);
    // The sketch and bloom filter grow with the key count; the snapshot
    // only points at their blob (DESIGN.md §8).
    PutBlobRef(&body, ks->pidx_blob);
    PutVarint64(&body, ks->secondary_indexes.size());
    for (const auto& [name, sidx] : ks->secondary_indexes) {
      PutString(&body, sidx.spec.name);
      PutVarint32(&body, sidx.spec.value_offset);
      PutVarint32(&body, sidx.spec.value_length);
      body.push_back(static_cast<char>(sidx.spec.type));
      PutClusterVec(&body, sidx.sidx_clusters);
      PutBlobRef(&body, sidx.sketch_blob);
      PutVarint64(&body, sidx.entries);
    }
  }

  std::string out;
  PutFixed32(&out, kSnapshotMagic);
  PutFixed32(&out,
             crc32c::Mask(crc32c::Value(body.data(), body.size())));
  PutVarint64(&out, body.size());
  out += body;
  return out;
}

Status KeyspaceManager::DeserializeTable(const std::string& raw,
                                         std::uint64_t* seq) {
  Slice in(raw);
  by_id_.clear();
  by_name_.clear();
  if (!GetVarint64(&in, seq) || in.empty()) {
    return Status::Corruption("snapshot header");
  }
  const bool has_zm = in[0] != 0;
  in.remove_prefix(1);
  if (has_zm) {
    Slice zm;
    if (!GetLengthPrefixedSlice(&in, &zm)) {
      return Status::Corruption("snapshot zone-manager section");
    }
    if (zones_ != nullptr) {
      KVCSD_RETURN_IF_ERROR(zones_->RestoreFrom(&zm));
    }
  }
  if (!GetVarint64(&in, &next_id_)) return Status::Corruption("snapshot");
  std::uint64_t count = 0;
  if (!GetVarint64(&in, &count)) return Status::Corruption("snapshot");
  for (std::uint64_t i = 0; i < count; ++i) {
    auto ks = std::make_unique<Keyspace>(ssd_->sim());
    std::uint64_t sidx_count = 0;
    bool ok = GetVarint64(&in, &ks->id) && GetString(&in, &ks->name);
    if (ok && in.size() >= 2) {
      ks->state = static_cast<KeyspaceState>(in[0]);
      ks->pending_delete = in[1] != 0;
      in.remove_prefix(2);
    } else {
      ok = false;
    }
    ok = ok && GetVarint64(&in, &ks->run_entries) &&
         GetClusterVec(&in, &ks->klog_clusters) &&
         GetClusterVec(&in, &ks->vlog_clusters) &&
         GetClusterVec(&in, &ks->pidx_clusters) &&
         GetClusterVec(&in, &ks->sorted_value_clusters) &&
         GetBlobRef(&in, &ks->pidx_blob) && GetVarint64(&in, &sidx_count);
    if (!ok) return Status::Corruption("snapshot keyspace entry");
    for (std::uint64_t j = 0; j < sidx_count; ++j) {
      SecondaryIndex sidx;
      if (!GetString(&in, &sidx.spec.name) ||
          !GetVarint32(&in, &sidx.spec.value_offset) ||
          !GetVarint32(&in, &sidx.spec.value_length) || in.empty()) {
        return Status::Corruption("snapshot sidx entry");
      }
      sidx.spec.type = static_cast<nvme::SecondaryKeyType>(in[0]);
      in.remove_prefix(1);
      if (!GetClusterVec(&in, &sidx.sidx_clusters) ||
          !GetBlobRef(&in, &sidx.sketch_blob) ||
          !GetVarint64(&in, &sidx.entries)) {
        return Status::Corruption("snapshot sidx entry");
      }
      ks->secondary_indexes[sidx.spec.name] = std::move(sidx);
    }
    by_name_[ks->name] = ks->id;
    by_id_[ks->id] = std::move(ks);
  }
  return Status::Ok();
}

sim::Task<Status> KeyspaceManager::Persist() {
  PersistRequest req(ssd_->sim());
  persist_queue_.push_back(&req);
  while (!req.done && persist_queue_.front() != &req) {
    co_await req.wake.Wait();
    req.wake.Reset();
  }
  if (req.done) co_return req.status;

  // This request is the writer. Every request queued so far rides the
  // snapshot WriteSnapshot serializes before its first suspension; later
  // arrivals wait for the next one.
  const std::size_t group = persist_queue_.size();
  const Status status = co_await WriteSnapshot();
  for (std::size_t i = 0; i < group; ++i) {
    PersistRequest* member = persist_queue_.front();
    persist_queue_.pop_front();
    member->done = true;
    member->status = status;
    if (member != &req) member->wake.Set();
  }
  if (!persist_queue_.empty()) persist_queue_.front()->wake.Set();
  co_return status;
}

sim::Task<Status> KeyspaceManager::WriteSnapshot() {
  // One writer at a time, so serialize order is seq order: the highest
  // intact seq is always the newest table. Gaps from failed appends are
  // harmless; only monotonicity matters.
  const std::uint64_t seq = ++persist_seq_;
  const std::string snapshot = SerializeTable(seq);
  sim::FaultInjector* faults = ssd_->fault_injector();
  std::uint32_t target = current_meta_zone_;
  bool need_reset = reset_before_append_;
  // When recovery already demands a reset, skip the fits-check: the reset
  // empties the target anyway, and switching zones here would reset the
  // sibling — the zone holding the newest intact snapshot.
  if (!need_reset &&
      ssd_->write_pointer(target) + snapshot.size() > ssd_->zone_size()) {
    // Ping-pong: rewrite into the sibling zone. The zone holding the
    // newest intact snapshot is never the one reset, so a crash anywhere
    // in this window leaves a recoverable table.
    target = target == meta_zone_a_ ? meta_zone_b_ : meta_zone_a_;
    need_reset = true;
  }
  if (need_reset) {
    if (faults != nullptr && faults->Hit("meta.before_reset")) {
      co_return Status::IoError("simulated power loss (metadata switch)");
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await ssd_->Reset(target));
    if (faults != nullptr && faults->Hit("meta.after_reset")) {
      co_return Status::IoError("simulated power loss (metadata switch)");
    }
  }
  auto addr = co_await ssd_->Append(target, wire::AsBytes(snapshot));
  KVCSD_CO_RETURN_IF_ERROR(addr.status());
  current_meta_zone_ = target;
  reset_before_append_ = false;
  if (faults != nullptr && faults->Hit("meta.after_append")) {
    // Crash before the commit barrier: the torn-tail hook may truncate
    // this snapshot, so recovery falls back to the previous intact one.
    // The operation was never acknowledged, so either outcome is legal.
    co_return Status::IoError("simulated power loss (metadata append)");
  }
  // The snapshot is now the durability commit point for everything it
  // references; fence it against torn-tail truncation before callers
  // acknowledge anything to the host.
  ssd_->CommitTail();
  co_return Status::Ok();
}

sim::Task<Result<BlobRef>> KeyspaceManager::WritePidxBlob(
    const std::vector<SketchEntry>& sketch, const std::string& bloom,
    sim::Activity act) {
  std::string body;
  PutSketch(&body, sketch);
  PutString(&body, bloom);
  return WriteBlob(ZoneType::kPidx, std::move(body), act);
}

sim::Task<Result<BlobRef>> KeyspaceManager::WriteSidxBlob(
    const std::vector<SketchEntry>& sketch, sim::Activity act) {
  std::string body;
  PutSketch(&body, sketch);
  return WriteBlob(ZoneType::kSidx, std::move(body), act);
}

sim::Task<Result<BlobRef>> KeyspaceManager::WriteBlob(ZoneType role,
                                                      std::string body,
                                                      sim::Activity act) {
  if (zones_ == nullptr) {
    co_return Status::FailedPrecondition("index blobs need a zone manager");
  }
  BlobRef ref;
  ref.crc = crc32c::Mask(crc32c::Value(body.data(), body.size()));
  std::string framed;
  framed.reserve(8 + body.size());
  PutFixed32(&framed, kBlobMagic);
  PutFixed32(&framed, ref.crc);
  framed += body;
  ref.len = static_cast<std::uint32_t>(framed.size());
  auto cluster = zones_->AllocateCluster(role, 1);
  if (!cluster.ok()) co_return cluster.status();
  ref.cluster = *cluster;
  auto addr = co_await zones_->Append(ref.cluster, wire::AsBytes(framed), act);
  if (!addr.ok()) {
    // Never referenced: hand the zone straight back. Best-effort, since
    // recovery reclaims an unreferenced cluster a failed reset leaves.
    std::vector<ClusterId> unused(1, ref.cluster);
    co_await zones_->ReleaseBestEffort(std::move(unused));
    co_return addr.status();
  }
  ref.addr = *addr;
  co_return ref;
}

sim::Task<Result<std::string>> KeyspaceManager::ReadBlob(const BlobRef& ref) {
  std::string framed(ref.len, '\0');
  KVCSD_CO_RETURN_IF_ERROR(co_await ssd_->Read(
      ref.addr,
      std::span<std::byte>(reinterpret_cast<std::byte*>(framed.data()),
                           framed.size())));
  Slice in(framed);
  std::uint32_t magic = 0, crc = 0;
  if (!GetFixed32(&in, &magic) || magic != kBlobMagic ||
      !GetFixed32(&in, &crc) || crc != ref.crc ||
      crc32c::Unmask(crc) != crc32c::Value(in.data(), in.size())) {
    co_return Status::Corruption("index metadata blob at " +
                                 std::to_string(ref.addr) +
                                 " fails its CRC check");
  }
  co_return in.ToString();
}

sim::Task<Status> KeyspaceManager::LoadBlobs() {
  for (auto& [id, ks] : by_id_) {
    if (ks->pidx_blob.cluster != 0) {
      auto body = co_await ReadBlob(ks->pidx_blob);
      if (!body.ok()) co_return body.status();
      Slice in(*body);
      if (!GetSketch(&in, &ks->pidx_sketch) ||
          !GetString(&in, &ks->pidx_bloom)) {
        co_return Status::Corruption("PIDX metadata blob of keyspace '" +
                                     ks->name + "'");
      }
    }
    for (auto& [name, sidx] : ks->secondary_indexes) {
      if (sidx.sketch_blob.cluster == 0) continue;
      auto body = co_await ReadBlob(sidx.sketch_blob);
      if (!body.ok()) co_return body.status();
      Slice in(*body);
      if (!GetSketch(&in, &sidx.sketch)) {
        co_return Status::Corruption("SIDX metadata blob '" + name +
                                     "' of keyspace '" + ks->name + "'");
      }
    }
  }
  co_return Status::Ok();
}

sim::Task<Status> KeyspaceManager::ScanZone(std::uint32_t zone, bool* found,
                                            std::uint64_t* best_seq,
                                            std::string* best_body,
                                            std::uint32_t* best_zone) {
  const std::uint64_t written = ssd_->write_pointer(zone);
  if (written == 0) co_return Status::Ok();

  std::string log(written, '\0');
  KVCSD_CO_RETURN_IF_ERROR(co_await ssd_->Read(
      static_cast<std::uint64_t>(zone) * ssd_->zone_size(),
      std::span<std::byte>(reinterpret_cast<std::byte*>(log.data()),
                           log.size())));

  // Walk the snapshot log; remember the zone's last intact snapshot. A
  // torn or corrupt record ends the walk — everything before it is intact.
  Slice in(log);
  while (!in.empty()) {
    std::uint32_t magic = 0, masked_crc = 0;
    std::uint64_t len = 0;
    if (!GetFixed32(&in, &magic) || magic != kSnapshotMagic ||
        !GetFixed32(&in, &masked_crc) || !GetVarint64(&in, &len) ||
        in.size() < len) {
      break;
    }
    Slice body(in.data(), len);
    in.remove_prefix(len);
    if (crc32c::Unmask(masked_crc) !=
        crc32c::Value(body.data(), body.size())) {
      break;
    }
    Slice probe = body;
    std::uint64_t seq = 0;
    if (!GetVarint64(&probe, &seq)) continue;
    if (!*found || seq > *best_seq) {
      *found = true;
      *best_seq = seq;
      *best_body = body.ToString();
      *best_zone = zone;
    }
  }
  co_return Status::Ok();
}

sim::Task<Result<std::uint64_t>> KeyspaceManager::Recover() {
  bool found = false;
  std::uint64_t best_seq = 0;
  std::string best_body;
  std::uint32_t best_zone = meta_zone_a_;
  KVCSD_CO_RETURN_IF_ERROR(co_await ScanZone(meta_zone_a_, &found, &best_seq,
                                             &best_body, &best_zone));
  KVCSD_CO_RETURN_IF_ERROR(co_await ScanZone(meta_zone_b_, &found, &best_seq,
                                             &best_body, &best_zone));
  if (!found) {
    persist_seq_ = 0;
    current_meta_zone_ = meta_zone_a_;
    reset_before_append_ = false;
    co_return std::uint64_t{0};
  }
  std::uint64_t seq = 0;
  KVCSD_CO_RETURN_IF_ERROR(DeserializeTable(best_body, &seq));
  KVCSD_CO_RETURN_IF_ERROR(co_await LoadBlobs());
  persist_seq_ = best_seq;
  // Future snapshots go to the OTHER zone, reset first: the best zone may
  // end in a torn snapshot, and appending after garbage would hide every
  // later record from the next recovery's scan.
  current_meta_zone_ =
      best_zone == meta_zone_a_ ? meta_zone_b_ : meta_zone_a_;
  reset_before_append_ = true;
  co_return static_cast<std::uint64_t>(by_id_.size());
}

std::string_view KeyspaceStateName(KeyspaceState state) {
  switch (state) {
    case KeyspaceState::kEmpty:
      return "EMPTY";
    case KeyspaceState::kWritable:
      return "WRITABLE";
    case KeyspaceState::kCompacting:
      return "COMPACTING";
    case KeyspaceState::kCompacted:
      return "COMPACTED";
    case KeyspaceState::kRecompacting:
      return "RECOMPACTING";
  }
  return "UNKNOWN";
}

}  // namespace kvcsd::device
