// Keyspace table: name -> Keyspace, persisted to the reserved metadata
// zones of the ZNS SSD (paper §IV: "an in-memory keyspace table backed by a
// metadata zone in the underlying ZNS SSD for data persistence").
//
// Persistence model (DESIGN.md §8): a persist appends a serialized
// snapshot of the table (and, when wired to a ZoneManager, the
// zone-cluster allocation table) to the current metadata zone. The
// snapshot holds O(keyspaces) bytes: each index's sketch and bloom filter
// live out of line in a CRC-framed blob (WritePidxBlob / WriteSidxBlob)
// that the snapshot references by address. Persists are group-committed
// through one writer, so at most one metadata reset or append is ever in
// flight. Snapshots carry a monotonic sequence number. When the current
// zone fills, persistence ping-pongs to the other metadata zone: the
// sibling is reset and the newest snapshot is written there. Because the
// switch never resets the zone holding the latest intact snapshot, a power
// cut inside the Reset-then-Append window cannot lose the table — recovery
// scans both zones, loads the intact snapshot with the highest sequence
// number, and reads back (and CRC-checks) every blob it references.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvcsd/keyspace.h"
#include "kvcsd/zone_manager.h"
#include "sim/task.h"

namespace kvcsd::device {

// The sketch section of an index blob: per entry its pivot, block address
// and length, and value spans (DESIGN.md §10). GetSketch returns false on
// a truncated or malformed encoding.
void PutSketch(std::string* out, const std::vector<SketchEntry>& sketch);
bool GetSketch(Slice* in, std::vector<SketchEntry>* sketch);

class KeyspaceManager {
 public:
  // `zones` may be null (table-only persistence, used by unit tests); when
  // set, the zone-cluster allocation table is persisted and recovered
  // alongside the keyspace table so cluster ids in snapshots stay
  // meaningful across a restart.
  explicit KeyspaceManager(storage::ZnsSsd* ssd,
                           ZoneManager* zones = nullptr,
                           std::uint32_t metadata_zone_a = 0,
                           std::uint32_t metadata_zone_b = 1)
      : ssd_(ssd), zones_(zones), meta_zone_a_(metadata_zone_a),
        meta_zone_b_(metadata_zone_b), current_meta_zone_(metadata_zone_a) {}

  // A keyspace name becomes a field of every "device.ks.<name>.*" series
  // (DESIGN.md §9), so Create rejects with InvalidArgument a name with a
  // '.', a control character, or more than kMaxNameBytes bytes, and
  // registers nothing.
  static constexpr std::size_t kMaxNameBytes = 64;
  Result<Keyspace*> Create(const std::string& name);
  Result<Keyspace*> Find(const std::string& name);
  Result<Keyspace*> FindById(std::uint64_t id);
  // Removes the in-memory entry (zone clusters are the device's job).
  Status Erase(std::uint64_t id);

  std::size_t size() const { return by_id_.size(); }
  const std::map<std::uint64_t, std::unique_ptr<Keyspace>>& all() const {
    return by_id_;
  }

  // Makes the current table durable. Returns once a snapshot serialized
  // after this call is committed (or failed). Group commit: the one active
  // writer serializes the table once for every request queued before it,
  // appends it to the current metadata zone (ping-ponging to the sibling
  // when it no longer fits), fences it with CommitTail and completes the
  // whole group with one status. A request that arrives while a snapshot
  // is being written waits for the next one.
  sim::Task<Status> Persist();

  // Out-of-line index metadata: writes one CRC-framed blob into a fresh
  // one-zone cluster of the index's role (kPidx: sketch + bloom filter;
  // kSidx: sketch) and returns its ref. The caller installs the ref,
  // persists, and only then releases the blob it superseded. Needs a
  // ZoneManager; a blob must fit in one zone.
  sim::Task<Result<BlobRef>> WritePidxBlob(
      const std::vector<SketchEntry>& sketch, const std::string& bloom,
      sim::Activity act);
  sim::Task<Result<BlobRef>> WriteSidxBlob(
      const std::vector<SketchEntry>& sketch, sim::Activity act);

  // Rebuilds the table from the newest intact snapshot across both
  // metadata zones, then loads every index blob it references. A blob
  // whose frame or CRC does not match its ref fails with Corruption.
  // Returns the number of keyspaces recovered.
  sim::Task<Result<std::uint64_t>> Recover();

  // Sequence number of the last persisted/recovered snapshot.
  std::uint64_t persist_seq() const { return persist_seq_; }
  std::uint32_t current_meta_zone() const { return current_meta_zone_; }

 private:
  struct PersistRequest;

  // The writer's one snapshot: serialize, ping-pong check, reset, append,
  // CommitTail.
  sim::Task<Status> WriteSnapshot();
  sim::Task<Result<BlobRef>> WriteBlob(ZoneType role, std::string body,
                                       sim::Activity act);
  sim::Task<Result<std::string>> ReadBlob(const BlobRef& ref);
  // Reads back the sketches and blooms of every recovered keyspace.
  sim::Task<Status> LoadBlobs();
  std::string SerializeTable(std::uint64_t seq) const;
  Status DeserializeTable(const std::string& raw, std::uint64_t* seq);
  // Scans one metadata zone's snapshot log; keeps (seq, body) of its last
  // intact snapshot if newer than *best_seq.
  sim::Task<Status> ScanZone(std::uint32_t zone, bool* found,
                             std::uint64_t* best_seq, std::string* best_body,
                             std::uint32_t* best_zone);

  storage::ZnsSsd* ssd_;
  ZoneManager* zones_;
  std::uint32_t meta_zone_a_;
  std::uint32_t meta_zone_b_;
  std::uint32_t current_meta_zone_;
  // Set by Recover(): the current zone must be reset before the next
  // append. Recovery redirects persistence to the sibling of the zone the
  // best snapshot came from — that zone may end in a torn snapshot, and a
  // record appended after garbage would be invisible to the next scan.
  bool reset_before_append_ = false;
  std::uint64_t persist_seq_ = 0;
  // Pending persists in arrival order. The front request's owner is the
  // writer; the rest wait for it to commit them or hand the role on.
  std::deque<PersistRequest*> persist_queue_;
  std::map<std::uint64_t, std::unique_ptr<Keyspace>> by_id_;
  std::map<std::string, std::uint64_t> by_name_;
  std::uint64_t next_id_ = 1;
};

}  // namespace kvcsd::device
