// Keyspace metadata (paper §IV "Keyspace Manager").
//
// A keyspace is a named container of key-value pairs with the lifecycle
//   EMPTY -> WRITABLE -> COMPACTING -> COMPACTED <-> RECOMPACTING
// Only COMPACTED keyspaces are queryable; secondary indexes attach only in
// the COMPACTED state. The keyspace table also stores the per-block pivot
// "sketches" that primary and secondary queries start from.
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

#include "kvcsd/zone_manager.h"
#include "nvme/command.h"

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
struct SketchEntry {
  std::string pivot;
  std::uint64_t block_addr = 0;
  std::uint32_t block_len = 0;
};

// Number of index blocks a range scan over [lo, hi] visits: the same
// start block and pivot stop rule QueryPrimaryRange/QuerySecondaryRange
// walk, answered from the in-DRAM sketch alone (query.cc).
std::size_t SketchBlocksInRange(const std::vector<SketchEntry>& sketch,
                                const std::string& lo, const std::string& hi);

struct SecondaryIndex {
  nvme::SecondaryIndexSpec spec;
  std::vector<ClusterId> sidx_clusters;
  std::vector<SketchEntry> sketch;  // pivot = order-encoded secondary key
  std::uint64_t entries = 0;
};

// Newest live mutation for one key of a COMPACTED keyspace's delta log.
// The durable form is the KLOG/VLOG delta; this index is the DRAM view
// merged reads consult first, rebuilt by delta replay after a power cut.
// While the device stays up the value rides inline (written by the PUT
// before its flush lands); after a replay only the VLOG pointer survives
// and readers gather the value from flash.
// Fixed DRAM cost charged per delta-index entry (map node + DeltaEntry
// fields) when maintaining Keyspace::delta_index_bytes, on top of the key
// and inline value bytes. An estimate — the gauge bounds headroom, it does
// not bill exact allocator bytes.
inline constexpr std::uint64_t kDeltaEntryOverhead = 48;

struct DeltaEntry {
  std::uint64_t seq = 0;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
  bool tombstone = false;
  bool has_value = false;  // value below is the authoritative bytes
  std::string value;
};

struct Keyspace {
  std::uint64_t id = 0;
  std::string name;
  KeyspaceState state = KeyspaceState::kEmpty;

  std::uint64_t num_kvs = 0;
  std::string min_key;
  std::string max_key;

  // WRITABLE-phase storage.
  std::vector<ClusterId> klog_clusters;
  std::vector<ClusterId> vlog_clusters;
  std::uint64_t klog_bytes = 0;
  std::uint64_t vlog_bytes = 0;

  // COMPACTED-phase storage.
  std::vector<ClusterId> pidx_clusters;
  std::vector<ClusterId> sorted_value_clusters;
  std::vector<SketchEntry> pidx_sketch;
  // Serialized bloom filter over the primary keys (common/bloom.h format),
  // built while compaction streams the merged keys through the index
  // builder and persisted with the metadata snapshot so recovery restores
  // it. Empty = no filter (bloom disabled at compaction time, or the
  // keyspace is not COMPACTED); point lookups then probe flash directly.
  std::string pidx_bloom;

  std::map<std::string, SecondaryIndex> secondary_indexes;

  // Live entries in the sorted run (exact count produced by the last
  // LWW-deduped compaction; persisted). num_kvs for a COMPACTED keyspace
  // is run_entries plus the delta's live (non-tombstone) key count — an
  // estimate, since a delta PUT may overwrite a run key.
  std::uint64_t run_entries = 0;

  // Next mutation sequence. NOT persisted: recovery derives it as
  // (max replayed seq + 1); compaction releases the logs that carried the
  // old sequences, so restarting the counter per delta generation is safe
  // — LWW only ever compares sequences within one log generation.
  std::uint64_t next_seq = 1;

  // COMPACTED-phase delta (DESIGN.md §12): newest mutation per key,
  // rebuilt from the klog/vlog delta chains at recovery. Number of
  // non-tombstone entries is tracked in delta_live.
  std::map<std::string, DeltaEntry> delta_index;
  std::uint64_t delta_live = 0;
  // Approximate DRAM footprint of delta_index (key + inline value bytes
  // plus a fixed per-entry overhead), maintained by every mutation and
  // recomputed by delta replay. Exported as the "device.delta.index_bytes"
  // gauge and compared against DeviceConfig::delta_fold_watermark_bytes to
  // trigger watermark folds. Not persisted.
  std::uint64_t delta_index_bytes = 0;

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
};

}  // namespace kvcsd::device
