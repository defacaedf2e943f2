// Keyspace metadata (paper §IV "Keyspace Manager").
//
// A keyspace is a named container of key-value pairs with the lifecycle
//   EMPTY -> WRITABLE -> COMPACTING -> COMPACTED <-> RECOMPACTING
// Only COMPACTED keyspaces are queryable; secondary indexes attach only in
// the COMPACTED state. The keyspace table also stores the per-block pivot
// "sketches" that primary and secondary queries start from.
//
// The sketches and the bloom filter live in SoC DRAM. Their durable copy
// is out of line: each index's metadata is a CRC-framed blob in a zone
// cluster of the index's own role, and the metadata snapshot keeps only a
// BlobRef to it, so a snapshot grows with the number of keyspaces, not
// with the number of keys (DESIGN.md §8).
//
// A COMPACTED keyspace stays mutable (DESIGN.md §12): PUT/DELETE traffic
// lands in a fresh KLOG/VLOG *delta log* (reusing the klog/vlog chains,
// empty right after compaction) with an in-DRAM per-key delta index for
// merged reads. kCompact on a COMPACTED keyspace folds the delta back
// into the sorted run incrementally (RECOMPACTING), rewriting only the
// index blocks the delta touches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "kvcsd/wire.h"
#include "kvcsd/zone_manager.h"
#include "nvme/command.h"
#include "sim/sync.h"

namespace kvcsd::device {

enum class KeyspaceState : std::uint8_t {
  kEmpty = 0,
  kWritable,
  kCompacting,
  kCompacted,
  // Incremental re-compaction in progress: the sorted run and the delta
  // are both intact (queries wait for the fold to finish); a crash rolls
  // straight back to kCompacted.
  kRecompacting,
};

std::string_view KeyspaceStateName(KeyspaceState state);

// One entry per 4 KB index block: the block's first (pivot) key and its
// device address + length. Kept in SoC DRAM as part of the keyspace table.
// A PIDX entry also carries the SORTED_VALUES spans covering every value
// its block points to, one per zone the values sit in, so a point lookup
// that must read the block can read those values alongside it
// (DESIGN.md §10). SIDX entries carry none.
struct SketchEntry {
  std::string pivot;
  std::uint64_t block_addr = 0;
  std::uint32_t block_len = 0;
  std::vector<wire::ValueSpan> spans = {};
};

// Sketch lookups (query.cc). SketchLowerBlock: the last block whose pivot
// is <= key, or sketch.size() when key precedes every pivot; valid only
// for unique pivots (PIDX). SketchRangeStart: the first block that can
// hold entries >= lo, correct even when consecutive blocks share a pivot
// (tied secondary keys): the first block whose pivot is >= lo, stepped
// back one, since the preceding block's tail may still hold keys >= lo.
std::size_t SketchLowerBlock(const std::vector<SketchEntry>& sketch,
                             const std::string& key);
std::size_t SketchRangeStart(const std::vector<SketchEntry>& sketch,
                             const std::string& lo);

// Number of index blocks a range scan over [lo, hi] visits: the same
// start block and pivot stop rule the range scans' sketch walk uses,
// answered from the in-DRAM sketch alone.
std::size_t SketchBlocksInRange(const std::vector<SketchEntry>& sketch,
                                const std::string& lo, const std::string& hi);

// Flash location of one index's out-of-line metadata blob: a one-zone
// cluster holding a single CRC-framed record at [addr, addr + len). `crc`
// is the masked CRC32C of the blob body, checked again at recovery.
// cluster == 0 means no blob (the index has never committed).
struct BlobRef {
  ClusterId cluster = 0;
  std::uint64_t addr = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};

struct SecondaryIndex {
  nvme::SecondaryIndexSpec spec;
  std::vector<ClusterId> sidx_clusters;
  std::vector<SketchEntry> sketch;  // pivot = order-encoded secondary key
  // Durable copy of `sketch` (a kSidx blob).
  BlobRef sketch_blob;
  std::uint64_t entries = 0;
};

// Fixed DRAM cost charged per delta-index entry (map node + DeltaEntry
// fields) when maintaining Keyspace::delta_index_bytes, on top of the key
// and inline value bytes. An estimate — the gauge bounds headroom, it does
// not bill exact allocator bytes.
inline constexpr std::uint64_t kDeltaEntryOverhead = 48;

// Newest live mutation for one key of a COMPACTED keyspace's delta log.
// The durable form is the KLOG/VLOG delta; this index is the DRAM view
// merged reads consult first, rebuilt by delta replay after a power cut.
// While the device stays up the value rides inline (written by the PUT
// before its flush lands); after a replay only the VLOG pointer survives
// and readers gather the value from flash.
struct DeltaEntry {
  std::uint64_t seq = 0;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
  bool tombstone = false;
  bool has_value = false;  // value below is the authoritative bytes
  std::string value;
};

// The device-side runtime of one keyspace (DESIGN.md §12): its DRAM
// write buffer and the synchronization the mutation, flush, drain and
// compaction paths share. Never persisted. It lives inside the Keyspace,
// so it is created with it and freed with it by KeyspaceManager::Erase:
// a dropped and recreated keyspace never sees a stale buffer, latched
// error or event.
struct KeyspaceRuntime {
  struct WriteEntry {
    std::string key;
    std::string value;
    std::uint64_t seq = 0;
    bool tombstone = false;
  };
  struct WriteBuffer {
    std::vector<WriteEntry> entries;
    std::uint64_t bytes = 0;
  };
  // Log flushes of one keyspace allowed in flight at once.
  static constexpr std::uint64_t kMaxInflightFlushes = 4;

  explicit KeyspaceRuntime(sim::Simulation* sim)
      : write_lock(sim, 1),
        flush_slots(sim, kMaxInflightFlushes),
        flushes_inflight(sim),
        compaction_done(sim),
        readers_idle(sim) {}

  WriteBuffer buffer;
  // Serializes mutations and buffer swaps.
  sim::Semaphore write_lock;
  // Flush pipelining: a bounded number of flushes run detached; drains
  // wait for the group to empty.
  sim::Semaphore flush_slots;
  sim::WaitGroup flushes_inflight;
  // First flush failure since the last drain, handed out once by it.
  Status flush_error;
  // Set when a (re)compaction ends, on every exit path.
  sim::Event compaction_done;
  // The last (re)compaction job's status: Ok from its start until it
  // ends, then its result, set before compaction_done. kCompactWait
  // returns it and kKeyspaceStat carries it.
  Status compaction_status;
  // Set when active_readers drops to zero; the fold commit waits on it.
  sim::Event readers_idle;
};

// The part of a keyspace that a compaction or fold commit replaces
// (DESIGN.md §8 "Commit protocol"): its logs, its sorted run and indexes,
// the entry counts and the delta. Device::Commit completes the job's next
// layout with the old clusters it keeps, swaps it in and releases the
// clusters the old layout referenced that the new one does not.
struct KeyspaceLayout {
  // WRITABLE-phase storage.
  std::vector<ClusterId> klog_clusters;
  std::vector<ClusterId> vlog_clusters;
  // Records in the logs while the keyspace is not COMPACTED: every PUT and
  // DELETE counts, duplicates included (compaction's last-writer-wins pass
  // collapses them). Not persisted: the WRITABLE replay recounts it.
  std::uint64_t log_records = 0;

  // COMPACTED-phase storage.
  std::vector<ClusterId> pidx_clusters;
  std::vector<ClusterId> sorted_value_clusters;
  std::vector<SketchEntry> pidx_sketch;
  // Serialized bloom filter over the primary keys (common/bloom.h format),
  // built while compaction streams the merged keys through the index
  // builder. Empty = no filter (bloom disabled at compaction time, or the
  // keyspace is not COMPACTED); point lookups then probe flash directly.
  std::string pidx_bloom;
  // Durable copy of pidx_sketch + pidx_bloom (a kPidx blob), written by
  // every compaction and fold commit; recovery restores both from it.
  BlobRef pidx_blob;

  std::map<std::string, SecondaryIndex> secondary_indexes;

  // Live entries in the sorted run (exact count produced by the last
  // LWW-deduped compaction or fold; persisted).
  std::uint64_t run_entries = 0;

  // COMPACTED-phase delta (DESIGN.md §12): newest mutation per key,
  // rebuilt from the klog/vlog delta chains at recovery. Number of
  // non-tombstone entries is tracked in delta_live.
  std::map<std::string, DeltaEntry> delta_index;
  std::uint64_t delta_live = 0;
  // Approximate DRAM footprint of delta_index (key + inline value bytes
  // plus a fixed per-entry overhead). Exported as the
  // "device.delta.index_bytes" gauge. Not persisted.
  std::uint64_t delta_index_bytes = 0;

  // Every cluster the layout references, in release order: klog, vlog,
  // pidx, sorted values, each SIDX chain by name, the PIDX blob, then
  // each SIDX blob by name. ZoneManager::ReleaseClusters frees zones in
  // vector order, so this order fixes where later allocations land.
  std::vector<ClusterId> Clusters() const {
    std::vector<ClusterId> out;
    auto add = [&out](const std::vector<ClusterId>& chain) {
      out.insert(out.end(), chain.begin(), chain.end());
    };
    add(klog_clusters);
    add(vlog_clusters);
    add(pidx_clusters);
    add(sorted_value_clusters);
    for (const auto& [name, sidx] : secondary_indexes) add(sidx.sidx_clusters);
    if (pidx_blob.cluster != 0) out.push_back(pidx_blob.cluster);
    for (const auto& [name, sidx] : secondary_indexes) {
      const ClusterId blob = sidx.sketch_blob.cluster;
      if (blob != 0) out.push_back(blob);
    }
    return out;
  }
};

struct Keyspace : KeyspaceLayout {
  explicit Keyspace(sim::Simulation* sim) : runtime(sim) {}

  // A (re)compaction owns the logs right now.
  bool compacting() const {
    return state == KeyspaceState::kCompacting ||
           state == KeyspaceState::kRecompacting;
  }

  // The rollback rule for a (re)compaction that never committed, live or
  // at recovery: a fold returns to COMPACTED with its delta still pending;
  // a full compaction returns to WRITABLE with its logs (EMPTY if it had
  // none).
  void RollBackCompaction() {
    if (state == KeyspaceState::kRecompacting) {
      state = KeyspaceState::kCompacted;
    } else if (state == KeyspaceState::kCompacting) {
      state = klog_clusters.empty() ? KeyspaceState::kEmpty
                                    : KeyspaceState::kWritable;
    }
  }

  // The key count kKeyspaceStat reports. COMPACTED (or folding): the run
  // plus the delta's live keys, an estimate, since a delta PUT may
  // overwrite a run key and a delta DELETE may hit no run key; the next
  // fold makes it exact. Otherwise: the log records.
  std::uint64_t NumKvs() const {
    if (state == KeyspaceState::kCompacted ||
        state == KeyspaceState::kRecompacting) {
      return run_entries + delta_live;
    }
    return log_records;
  }

  std::uint64_t id = 0;
  std::string name;
  KeyspaceState state = KeyspaceState::kEmpty;

  // Next mutation sequence. NOT persisted: recovery derives it as
  // (max replayed seq + 1); compaction releases the logs that carried the
  // old sequences, so restarting the counter per delta generation is safe
  // — LWW only ever compares sequences within one log generation.
  std::uint64_t next_seq = 1;

  // Deletion requested while compaction/index build was running (paper:
  // "deletion may be deferred due to on-going compaction"). Persisted in
  // the metadata snapshot before the drop is acknowledged, so recovery
  // completes a deferred drop a crash interrupted.
  bool pending_delete = false;

  // Commands currently executing against this keyspace. A handler pins
  // the keyspace for the span of its coroutine so a concurrent drop
  // cannot free it mid-await; DropKeyspace defers until this drains.
  std::uint32_t inflight = 0;

  // Queries that passed AwaitQueryable and are reading the COMPACTED
  // structures right now. A re-compaction commit waits for this to drain
  // (new readers block in AwaitQueryable once the state flips), so the
  // cluster swap can never happen under an in-flight scan. Not persisted.
  std::uint32_t active_readers = 0;
  KeyspaceRuntime runtime;
};

// The live apply step (DESIGN.md §12), the one writer of log_records,
// delta_index, delta_live and delta_index_bytes: Device::BufferMutation
// applies every admitted PUT and DELETE through it and recovery's log
// replay every KLOG entry, so the two cannot disagree. A COMPACTED
// keyspace keeps the newest record per key in its delta index; any other
// counts a log record.
void ApplyMutation(Keyspace* ks, const std::string& key,
                   const DeltaEntry& record);

}  // namespace kvcsd::device
