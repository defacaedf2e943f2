// The KV-CSD device: the paper's core contribution.
//
// A Device models the Sidewinder-100 SoC running the on-device key-value
// store as an SPDK userspace driver: 4 weak ARM cores (a CpuPool), a DRAM
// budget that bounds merge-sort runs, and direct NVMe access to the ZNS
// SSD with a ~3 µs software path per I/O (no filesystem, no kernel).
//
// Request flow (paper Fig. 3b/4):
//   client --PCIe/NVMe--> main loop --> per-command handler coroutine
//     PUT/bulk PUT  -> 192 KB DRAM write buffer -> KLOG + VLOG clusters
//                      (keys and values stored separately, §V)
//     COMPACT       -> asynchronous on-device external merge sort: keys
//                      first, then values; produces PIDX +
//                      SORTED_VALUES and the in-memory pivot sketch
//     SIDX BUILD    -> full scan + extract + external sort -> SIDX blocks
//     QUERIES       -> sketch -> 4 KB index blocks -> value gather; only
//                      results cross PCIe back to the host
//
// Every completed command is recorded as an event in the simulation's
// event ring (sim/log.h), which trips its SLO dumps; the ring, not the
// device, survives a Restart power cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hostenv/cost_model.h"
#include "kvcsd/index_cache.h"
#include "kvcsd/keyspace_manager.h"
#include "kvcsd/zone_manager.h"
#include "nvme/log_page.h"
#include "nvme/queue.h"
#include "sim/activity.h"
#include "sim/resources.h"
#include "sim/sync.h"
#include "sim/telemetry.h"
#include "storage/zns.h"

namespace kvcsd::device {

// Size of one PIDX/SIDX index block (the paper's 4 KiB index block).
inline constexpr std::uint32_t kIndexBlockSize = 4096;
// Background byte-rate charges give their core back once per index block.
static_assert(sim::CpuPool::kSliceBytes == kIndexBlockSize);

struct DeviceConfig {
  storage::ZnsConfig zns;
  ZoneManagerConfig zones;
  std::uint32_t soc_cores = 4;
  std::uint64_t dram_bytes = GiB(8);
  std::uint64_t write_buffer_bytes = KiB(192);  // paper's prototype value
  // Appends to SORTED_VALUES/PIDX/SIDX are batched to this size.
  std::uint64_t output_batch_bytes = KiB(256);
  // Merge-sort run size; 0 derives dram_bytes / 4.
  std::uint64_t sort_run_bytes = 0;
  hostenv::CostModel costs = hostenv::CostModel::Soc();

  // --- read-path acceleration (DESIGN.md §10) ---
  // DRAM carved out for the PIDX/SIDX block cache, alongside the sort-run
  // budget above; 0 derives dram_bytes / 8. Set index_cache_enabled=false
  // to turn the cache off regardless of size (for ablations).
  std::uint64_t index_cache_bytes = 0;
  bool index_cache_enabled = true;
  // Bloom bits per primary key for the per-keyspace filter built during
  // compaction and consulted by point lookups; 0 disables both the build
  // and the check.
  std::uint32_t bloom_bits_per_key = 10;
  // Maximum concurrent coalesced range reads per value gather, the
  // index-block read window of an incremental fold (DESIGN.md §12), and
  // the append window of every compaction output chain (DESIGN.md §7):
  // TEMP runs, SORTED_VALUES, PIDX and SIDX blocks of a compaction, a
  // secondary-index build and a fold. 1 recovers the serial behavior;
  // the window never moves a block. Values beyond the NAND channel count
  // only add queueing.
  std::uint32_t gather_fanout = 8;

  // Stats/telemetry/trace name prefix for this device instance. Empty (the
  // default) keeps every historical name; a fleet of devices sharing one
  // simulation uses "shard0.", "shard1.", ... so each device's counters
  // ("shard0.device.*"), utilization meters ("util.shard0.soc.*"), NAND/ZNS
  // series and trace tracks stay separable. Applied transitively to the
  // embedded ZnsConfig (zns.stats_prefix is overwritten at construction).
  std::string stats_prefix;

  std::uint64_t EffectiveSortRunBytes() const {
    return sort_run_bytes != 0 ? sort_run_bytes : dram_bytes / 4;
  }
  std::uint64_t EffectiveIndexCacheBytes() const {
    if (!index_cache_enabled) return 0;
    return index_cache_bytes != 0 ? index_cache_bytes : dram_bytes / 8;
  }
};

// An unsorted log entry parsed back from KLOG (key + pointer to VLOG).
// `seq` is the keyspace mutation sequence that decides last-writer-wins
// between duplicate keys; `tombstone` marks a point DELETE.
struct KlogEntry {
  std::string key;
  std::uint64_t value_addr = 0;
  std::uint32_t value_len = 0;
  std::uint64_t seq = 0;
  bool tombstone = false;
};

// One mark of a spilled run's sparse index: the key of an entry and the
// entry's byte offset in the run (its segments laid end to end).
struct RunMark {
  std::string key;
  std::uint64_t offset = 0;
};

// A run index marks the first entry at or past every this many bytes of
// serialized entries.
inline constexpr std::uint64_t kRunIndexStride = KiB(4);

// A sorted run of an external sort: its serialized entries, either
// spilled to TEMP zone clusters as a list of contiguous flash segments,
// each holding whole entries, or kept in SoC DRAM (`resident`, no
// segments); and a sparse index over them (the first mark is the first
// entry). A partitioned merge picks its splitters from the index and
// starts and stops each reader at its marks, in flash or in DRAM alike.
struct SpilledRun {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> segments;
  std::string resident;
  std::vector<RunMark> index;
  std::uint64_t bytes = 0;  // serialized entries, all segments
};

// One record of a secondary-index external sort: the order-encoded
// secondary key, the primary key, and the value pointer.
struct SidxTuple {
  std::string skey;
  std::string pkey;
  std::uint64_t vaddr;
  std::uint32_t vlen;
};

// The global SIDX order: order-encoded secondary key, then primary key.
// SIDX runs and blocks are written in it and every reader relies on it
// (a `limit` inside a run of tied secondary keys keeps the smallest
// primary keys). Orders any records with `skey`/`pkey` members.
struct SidxOrderFn {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.skey != b.skey) return a.skey < b.skey;
    return a.pkey < b.pkey;
  }
};
inline constexpr SidxOrderFn SidxOrder{};

// Compaction observability, cumulative across every compaction and
// secondary-index build the device has run. Byte counters cover the
// compaction path only (KLOG parsing, TEMP spills and re-reads, value
// gather/rewrite, index-block output), so they separate compaction I/O
// from foreground traffic. Phase ticks are summed wall intervals; they
// can overlap when several keyspaces compact concurrently.
struct CompactionStats {
  std::uint64_t bytes_read = 0;       // flash bytes read by compaction
  std::uint64_t bytes_written = 0;    // flash bytes written by compaction
  std::uint64_t runs_spilled = 0;     // sorted runs spilled to TEMP zones
  std::uint64_t max_merge_fanin = 0;  // widest k-way merge observed
  Tick phase1_ticks = 0;  // log drain and persist, run generation
  Tick phase2_ticks = 0;  // merge + value permutation + index build
  Tick commit_ticks = 0;  // blob writes, commit persist, release
  // Whole compactions, from the job's start to the end of its release.
  // The three phases are contiguous, so on a device whose compactions all
  // succeeded this is their sum.
  Tick total_ticks = 0;
};

class Device {
 public:
  Device(sim::Simulation* sim, const DeviceConfig& config,
         nvme::QueueSet* queues);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  // Spawns the command-service loop. Call once.
  void Start();

  // Simulated power cycle: constructs a fresh Device over the surviving
  // ZNS byte state of `prior`. Resets `prior`'s fault injector (if any)
  // so the new device's I/O is live again, then clones the zone payloads.
  // The caller Start()s the new device and runs Recover() on it; `prior`
  // must stay alive (it still parks a coroutine on its old queue set)
  // but is permanently idle. `queues` must be a fresh queue set.
  static std::unique_ptr<Device> Restart(sim::Simulation* sim,
                                         const DeviceConfig& config,
                                         nvme::QueueSet* queues,
                                         const Device& prior);

  // Crash-consistent recovery (recovery.cc): loads the newest intact
  // metadata snapshot (keyspace table + zone-cluster table), rolls
  // keyspaces caught COMPACTING back to WRITABLE (releasing orphaned
  // TEMP/PIDX/SIDX output clusters), reclaims clusters referenced by no
  // keyspace and zones owned by no cluster, and replays the KLOG chains
  // through the live apply step (ApplyMutation).
  sim::Task<Status> Recover();

  KeyspaceManager& keyspaces() { return keyspace_manager_; }
  ZoneManager& zones() { return zone_manager_; }
  storage::ZnsSsd& ssd() { return ssd_; }
  sim::CpuPool& cpu() { return cpu_; }
  const DeviceConfig& config() const { return config_; }
  const IndexBlockCache& index_cache() const { return index_cache_; }

  // Prefix-scoped view over the simulation-wide stats registry (the
  // prefix is config().stats_prefix; empty for single-device sims, so
  // names are unchanged). The device records per-opcode counters
  // ("device.cmd.<op>"), aggregate latency histograms
  // ("device.cmd.<class>_ns") and per-keyspace latency histograms
  // ("device.ks.<keyspace>.<class>_ns") for the put/get/range/
  // secondary_range classes (nvme::OpcodeLatencyClass).
  sim::StatsView& stats();
  const sim::StatsView& stats() const;

  const CompactionStats& compaction_stats() const { return compaction_stats_; }

  // Commands popped off the SQ whose handler coroutine has not finished.
  // Returns to zero once the queue drains — including across a power
  // cycle, where the powered-off fast path completes stragglers.
  std::uint64_t inflight_commands() const { return inflight_commands_; }

  // --- in-band telemetry (DESIGN.md §14) ---
  // The device-side builder behind the kGetLogPage admin command. Public
  // so tests can read the page without a queue round-trip; over the wire
  // the host receives it flat-encoded (nvme/log_page.h) and decodes it
  // with Client::GetHealth().
  nvme::HealthPage BuildHealthPage() const;

  // Windowed wall-time meter of the single-core command dispatch loop
  // (capacity 1.0): the ROADMAP's known serialization bottleneck, made
  // visible as "util.dispatch.*" gauges.
  const sim::ResourceMeter& dispatch_meter() const { return dispatch_meter_; }

 private:
  // White-box access for read-path unit tests (tests/kvcsd/*): GatherValues
  // and ReadIndexBlock are internal, but dedupe/coalescing behavior is
  // worth pinning directly.
  friend struct DeviceTestPeer;

  // --- plumbing ---
  // Services every SQ/CQ pair of the queue set: commands are popped
  // round-robin across the pairs, so one full queue cannot starve its
  // neighbors.
  sim::Task<void> MainLoop();
  sim::Task<void> HandleCommand(nvme::QueuePair::Incoming incoming);
  sim::Task<nvme::Completion> Dispatch(nvme::Command& cmd);
  // Keyspace-scoped opcodes; runs with `ks` pinned (inflight counter), so
  // a concurrent drop defers instead of freeing the keyspace mid-await.
  sim::Task<nvme::Completion> DispatchKeyspaceCommand(nvme::Command& cmd,
                                                      Keyspace* ks);
  sim::Task<void> Unpin(Keyspace* ks);
  // Registers a pass through a named crash point; true = power is gone.
  bool CrashPoint(const char* point);

  // Appends to the last cluster of `chain`, allocating a new cluster of
  // `type` when full. `act` attributes the NAND channel time (host-write
  // for log flushes, compact/recompact for the background folds).
  sim::Task<Result<std::uint64_t>> AppendToChain(
      std::vector<ClusterId>* chain, ZoneType type,
      std::span<const std::byte> data,
      sim::Activity act = sim::Activity::kOther);
  // The windowed in-order writers of every compaction output chain
  // (chain_writer.h): ChainWriter keeps up to gather_fanout appends of one
  // chain in flight, each landing where a serial writer would put it;
  // IndexWriter packs PIDX/SIDX blocks and their sketch through one.
  class ChainWriter;
  class IndexWriter;
  // The batched reader of the whole-run index walks (chain_writer.h): a
  // fold's dirty PIDX blocks and its SIDX stream, a SIDX build's PIDX
  // scan. Reads sketch[blocks[0]], sketch[blocks[1]], ... in batches,
  // each one GatherValues with no index-cache lookup; runs
  // decode(k, block, T*) -> Task<Status> for a batch's blocks on
  // soc_cores cores, then consume(k, T&&) -> Task<Status> in order,
  // while the next `window` batches are gathered. Stops at the first
  // failure.
  template <typename T, typename Decode, typename Consume>
  sim::Task<Status> StreamIndexBlocks(const std::vector<SketchEntry>& sketch,
                                      const std::vector<std::size_t>& blocks,
                                      std::uint32_t window, sim::Activity act,
                                      Decode decode, Consume consume);

  // --- write path ---
  using WriteBuffer = KeyspaceRuntime::WriteBuffer;
  // PUT, or a point DELETE when `tombstone` (blind: deleting an absent
  // key is Ok). One record through the write buffer.
  sim::Task<Status> DoMutate(Keyspace* ks, std::string key, std::string value,
                             bool tombstone);
  sim::Task<Status> DoBulkPut(Keyspace* ks, const std::string& frame);
  // Mutation admission: promotes EMPTY to WRITABLE, accepts WRITABLE and
  // COMPACTED (delta mode), rejects (kBusy) during (re)compaction. On Ok
  // the caller holds the write lock.
  sim::Task<Status> AdmitMutation(Keyspace* ks);
  // Applies one admitted record: its sequence, ApplyMutation, and the
  // write buffer. The caller flushes once the buffer reaches
  // write_buffer_bytes.
  void BufferMutation(Keyspace* ks, std::string key, std::string value,
                      bool tombstone);
  sim::Task<Status> FlushBuffer(Keyspace* ks);
  // Flushes the write buffer, waits for every in-flight flush and takes
  // the flush error latched since the last drain: afterwards the logs
  // hold every acknowledged mutation. Sync and both compactions start so.
  sim::Task<Status> DrainWrites(Keyspace* ks);

  // --- compaction (compactor.cc) ---
  // The one entry point of deferred, offloaded compaction (paper §V): a
  // full compaction from EMPTY/WRITABLE, an incremental fold of the delta
  // from COMPACTED. Before returning it moves the keyspace to COMPACTING
  // or RECOMPACTING and re-arms the compaction-done event; the returned
  // task runs the job through CompactKeyspace. Callers check eligibility.
  // `trigger_cmd_id` is the causal id of the kCompact command that
  // started it (0 when internal); the compaction span links back to it
  // with a flow event.
  sim::Task<Status> BeginCompaction(
      Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
      std::uint64_t trigger_cmd_id = 0);
  // BeginCompaction, run detached: a failure rolls the keyspace back and
  // is visible through Stat and kCompactWait.
  void SpawnCompaction(Keyspace* ks,
                       std::vector<nvme::SecondaryIndexSpec> fused_specs,
                       std::uint64_t trigger_cmd_id);

  // What a compaction or fold hands to the commit: the next layout, whose
  // chains hold only the job's fresh clusters (the layout rule in Commit
  // adds the old ones it keeps) and whose SIDXs name no blob unless the
  // job left them unchanged; the TEMP clusters, reset while the commit
  // runs; and the job's own counters, recorded at the commit point.
  struct JobOutput {
    KeyspaceLayout next;
    std::vector<ClusterId> temp;
    std::function<void()> committed;
  };

  // Failure-handling shell around RunCompaction (COMPACTING) or
  // RunRecompaction (RECOMPACTING), and the one caller of Commit, under
  // which it resets the job's TEMP clusters. Whatever
  // the job allocated sits in `scratch`; on failure the clusters are
  // released best-effort (after a power cut the resets fail and recovery
  // reclaims the orphans instead) and the keyspace rolls back
  // (Keyspace::RollBackCompaction). The keyspace stays pinned until the
  // job ends, so a drop defers to it.
  sim::Task<Status> CompactKeyspace(
      Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
      std::uint64_t trigger_cmd_id);

  // The one commit of a compaction or fold (DESIGN.md §8): applies the
  // layout rule to out.next, writes the PIDX blob and one for every SIDX
  // that names none (as scratch, concurrently), drains the keyspace's
  // readers, swaps the layout in, sets COMPACTED and persists. If the
  // persist fails, the old layout and the (RE)COMPACTING state come back
  // and CompactKeyspace rolls the keyspace back. On success `scratch` is
  // cleared (the snapshot now owns the outputs), the keyspace's cached
  // index blocks are dropped, and every cluster the old layout references
  // that the new one does not is released. Crash points, the done counter
  // and the spans are named after the job: "compact" or "recompact".
  sim::Task<Status> Commit(Keyspace* ks, JobOutput out,
                           std::vector<ClusterId>* scratch);

  // The compaction body: sorts the keyspace; when `fused_specs` is
  // non-empty, also builds those secondary indexes in the same pass (the
  // paper's §V future-work optimization) by extracting keys from values
  // already in DRAM. A multi-core pipeline (DESIGN.md §7): run generation
  // fans out across the CpuPool, the key merge runs on a loser tree over
  // readers of runs kept in DRAM when the key log fits half the key share,
  // else of double-buffered TEMP readers, and phase 2 runs four stages over
  // bounded channels (merge -> VLOG gather -> SORTED_VALUES write -> PIDX,
  // bloom and fused-SIDX build), so the merge of one value batch overlaps
  // the gather of the one before it and the write of the one before that,
  // and a batch is indexed append by append as its write lands.
  // `scratch` collects every cluster it allocates; the commit point
  // clears it.
  sim::Task<Result<JobOutput>> RunCompaction(
      Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
      std::vector<ClusterId>* scratch);

  // Phase 1 worker: streams one KLOG zone in bounded chunks, accumulates
  // entries up to `run_budget` bytes, and closes sorted runs, kept in DRAM
  // when `resident`, else spilled to TEMP clusters owned by *out.
  // Independent per zone, safe to fan out.
  struct RunGenOutput;
  sim::Task<Status> GenerateZoneRuns(std::uint32_t zone,
                                     std::uint64_t run_budget, bool resident,
                                     RunGenOutput* out);

  // Sorts `*entries` by Traits::Less (charging `sort_bytes` of merge CPU,
  // sliced), serializes them as one run of an external sort, appends the
  // run to *runs and empties *entries. The run index marks an entry every
  // kRunIndexStride bytes. With a null `chain` the run stays in DRAM
  // (SpilledRun::resident); otherwise it is written to the TEMP chain
  // `chain` through a ChainWriter, a segment ending before an entry that
  // would push it past output_batch_bytes.
  template <typename Traits>
  sim::Task<Status> SpillRun(std::vector<typename Traits::Entry>* entries,
                             std::uint64_t sort_bytes,
                             std::vector<ClusterId>* chain,
                             std::vector<SpilledRun>* runs);

  // Phase 2's key merge, one partition of it: merges the part of every
  // run in the partition's key range (between splitters[partition - 1]
  // and splitters[partition]), charges its merge CPU per MiB and keeps
  // the live entry of each equal-key group. Stops early, Aborted, once
  // *stop is set.
  sim::Task<Result<std::vector<KlogEntry>>> MergePartition(
      const std::vector<SpilledRun>& runs,
      const std::vector<std::string>& splitters, std::size_t partition,
      const bool* stop);

  // The one SORTED_VALUES writer (chain_writer.h): appends b's values to
  // `chain` at the cuts ValueBatch::Admit recorded, one append per append
  // group, and re-points each entry's value_addr at its copy (0 for a
  // zero-length value no append carries). With `copy_cores` > 0 it also
  // charges each group's key-order copy, on up to that many SoC cores at
  // once, and issues each append, in order, once its copy is done; with
  // 0 the caller charges the copy. `landed`, when set, is called with a
  // group's index once the group's addresses are set (at once for a
  // group with no value bytes). Returns once every append has landed.
  struct ValueBatch;
  using GroupLanded = std::function<void(std::size_t group)>;
  sim::Task<Status> WriteValues(ValueBatch* b, std::vector<ClusterId>* chain,
                                sim::Activity act,
                                std::uint32_t copy_cores = 0,
                                const GroupLanded& landed = nullptr);

  // Phase 2's three downstream stages. The gather stage reads each merged
  // value batch's values from the VLOG; the write stage rewrites them in
  // key order and hands the batch to the index stage as it starts, which
  // builds PIDX blocks, the bloom filter and fused secondary-key tuples
  // one append group at a time as the group's append lands. Each drains
  // its input channel to the end on every path, so an upstream stage
  // blocked on it always wakes.
  struct Phase2Pipeline;
  sim::Task<Status> GatherStage(Phase2Pipeline* pipe);
  sim::Task<Status> ValueWriteStage(Phase2Pipeline* pipe);
  sim::Task<Status> IndexBuildStage(Phase2Pipeline* pipe);

  // --- secondary index (compactor.cc) ---
  // External sort state for <skey, pkey, value pointer> tuples.
  struct SidxSortState {
    std::vector<ClusterId> temp_clusters;
    std::vector<SpilledRun> runs;
    std::vector<SidxTuple> current;
    std::uint64_t current_bytes = 0;
    std::uint64_t run_budget = 0;

    // Buffers one tuple; true once the buffered run has reached its
    // budget and SidxSpill is due.
    bool Add(SidxTuple tuple) {
      current_bytes += tuple.skey.size() + tuple.pkey.size() + 12;
      current.push_back(std::move(tuple));
      return current_bytes >= run_budget;
    }
  };
  sim::Task<Status> SidxSpill(SidxSortState* state);
  // Turns the sorted tuples into SIDX blocks + sketch, building in place
  // in *out so the caller can release partially written clusters on
  // failure. A state that never spilled is sorted and packed in DRAM
  // (no TEMP zone); otherwise the last run spills and the runs merge.
  // Adds the spilled run count to device.sidx.runs_spilled and releases
  // the state's TEMP clusters on success.
  sim::Task<Status> SidxMergeToBlocks(SidxSortState* state,
                                      const nvme::SecondaryIndexSpec& spec,
                                      SecondaryIndex* out);

  sim::Task<Status> BuildSecondaryIndex(Keyspace* ks,
                                        const nvme::SecondaryIndexSpec& spec);
  sim::Task<Status> BuildSecondaryIndexInner(
      Keyspace* ks, const nvme::SecondaryIndexSpec& spec,
      SidxSortState* state, SecondaryIndex* out);

  // --- incremental re-compaction (recompact.cc) ---
  // Folds a COMPACTED keyspace's delta into the existing sorted run:
  // rewrites only the PIDX/SIDX blocks the delta keys touch (untouched
  // blocks stay in place, their old clusters retained), appends the delta
  // values to fresh SORTED_VALUES clusters, adds new keys to the bloom
  // filter in place, and hands the folded layout to Commit —
  // DESIGN.md §12.
  sim::Task<Result<JobOutput>> RunRecompaction(
      Keyspace* ks, std::vector<ClusterId>* scratch);
  // Loads a delta entry's value bytes (inline if the device never lost
  // power since the PUT, otherwise gathered from the VLOG delta).
  sim::Task<Result<std::string>> LoadDeltaValue(
      const DeltaEntry& entry, sim::Activity act = sim::Activity::kHostRead);
  // Queries arriving while a re-compaction owns the keyspace wait here
  // (the commit swaps clusters under the reader otherwise).
  sim::Task<Status> AwaitQueryable(Keyspace* ks);

  // --- explicit persistence ---
  sim::Task<Status> DoSync(Keyspace* ks);

  // --- queries (query.cc) ---
  sim::Task<Result<std::string>> QueryPoint(Keyspace* ks,
                                            const std::string& key);
  // `act` attributes the scan's flash reads and SoC compute: host-read for
  // client-issued scans, pushdown when QueryPushdown drives them.
  sim::Task<Status> QueryPrimaryRange(
      Keyspace* ks, const std::string& lo, const std::string& hi,
      std::uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out,
      sim::Activity act = sim::Activity::kHostRead);
  // With `attribute_only`, each row carries the index attribute's value
  // bytes alone (spec.value_length of them, as stored at value_offset)
  // instead of the full value: run tuples decode them from their SIDX
  // entry and issue no gather, delta tuples slice their DRAM value.
  sim::Task<Status> QuerySecondaryRange(
      Keyspace* ks, const std::string& index_name, const std::string& lo,
      const std::string& hi, std::uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out,
      sim::Activity act = sim::Activity::kHostRead,
      bool attribute_only = false);

  // --- pushdown (select.cc) ---
  // kKvSelect / kKvAggregate: collects candidate rows through the regular
  // range machinery above (bloom/cache/prefetch on the run side,
  // delta-merge with tombstone suppression, coalesced gather fan-out),
  // then filters on cmd.pred, projects per cmd.proj or folds cmd.agg —
  // all device-side, so only survivors or scalars cross PCIe. Records
  // "device.select.*" counters and a "query" trace span carrying the
  // bytes-scanned vs bytes-returned split.
  sim::Task<Status> QueryPushdown(Keyspace* ks, const nvme::Command& cmd,
                                  nvme::Completion* out);

  // Reads one 4 KB index block (PIDX or SIDX) given its sketch entry,
  // consulting the DRAM index cache first; `keyspace_id` scopes the cache
  // key so recycled block addresses can never alias across keyspaces.
  // With the cache on, a miss on a block whose flash read is in flight
  // waits for that read (device.read_cache.inflight_joins) and pays only
  // its own block search.
  sim::Task<Result<std::string>> ReadIndexBlock(
      std::uint64_t keyspace_id, const SketchEntry& entry,
      sim::Activity act = sim::Activity::kHostRead);
  // One index-block flash read that later misses on the block wait for,
  // keyed like the cache: (keyspace id, block address).
  using BlockKey = std::pair<std::uint64_t, std::uint64_t>;
  struct BlockRead {
    explicit BlockRead(sim::Simulation* sim) : done(sim) {}
    sim::Event done;
    Result<std::string> block{Status::Aborted("block read pending")};
  };

  // The one sketch walk behind both range scans (paper §V, DESIGN.md §10):
  // from the block that can hold `lo`, reads the index blocks of `sketch`
  // in order until a pivot passes `hi`, keeping the next block's read in
  // flight while the current one is decoded. Entries (wire::PidxEntry or
  // wire::SidxEntry) must arrive in index order, PIDX by key and SIDX by
  // SidxOrder, or the walk fails Corruption. Each entry inside [lo, hi]
  // goes to `take`, which returns true once the scan holds enough rows.
  template <typename Entry, typename Take>
  sim::Task<Status> WalkSketch(std::uint64_t keyspace_id,
                               const std::vector<SketchEntry>& sketch,
                               const std::string& lo, const std::string& hi,
                               sim::Activity act, const Take& take);

  // A read-ahead slot of the sketch walk: one block read issued while the
  // previous block is still in flight or being decoded. The walk MUST
  // await `done` on every outstanding slot before returning (the prefetch
  // coroutine writes through the slot pointer).
  struct IndexPrefetch {
    bool active = false;
    std::size_t pos = 0;
    Result<std::string> block{Status::Aborted("prefetch pending")};
    std::unique_ptr<sim::Event> done;
    std::optional<sim::Ledger> ledger;  // set when the walk keeps one
  };
  sim::Task<void> PrefetchIndexBlock(std::uint64_t keyspace_id,
                                     SketchEntry entry, IndexPrefetch* slot,
                                     sim::Activity act =
                                         sim::Activity::kHostRead);

  // A point lookup's value reads alongside its PIDX block (DESIGN.md §10):
  // eligible when the entry has value spans, the block is not in the
  // index cache, and the spans' page-rounded transfers take no longer
  // than one NAND read latency in sum, so overlapping the reads saves the
  // latency.
  bool SpanReadEligible(std::uint64_t keyspace_id,
                        const SketchEntry& entry) const;
  // Reads the SORTED_VALUES bytes [lo, hi) into *out.
  sim::Task<Status> ReadValueSpan(std::uint64_t lo, std::uint64_t hi,
                                  std::string* out);

  // Gathers values for (addr, len) requests: identical refs are deduped,
  // address-adjacent reads are coalesced into ranges, and the range reads
  // go out round-robin over their NAND channels
  // (config_.gather_fanout inflight), so the reads in flight spread
  // across a cluster's zones. Results are returned in request order
  // regardless of I/O timing.
  struct ValueRef {
    std::uint64_t addr;
    std::uint32_t len;
  };
  sim::Task<Result<std::vector<std::string>>> GatherValues(
      std::vector<ValueRef> refs,
      sim::Activity act = sim::Activity::kHostRead);

  // One range-scan result row before its value is fetched: the value is
  // already in DRAM at `dram` (delta values, and the SIDX-decoded
  // attribute bytes of an attribute-only secondary scan), or on flash at
  // `ref` when `dram` is null (run rows, delta values that survive only in
  // the VLOG).
  struct ScanRow {
    std::string key;
    ValueRef ref;
    const std::string* dram;
  };
  // The scans' one gather tail: reads every flash-backed row's value in
  // one GatherValues, then appends the rows, in order, to *out.
  sim::Task<Status> FetchRows(
      std::vector<ScanRow>* rows, sim::Activity act,
      std::vector<std::pair<std::string, std::string>>* out);

  // --- deletion ---
  // Defers while the keyspace is compacting or has pinned commands;
  // otherwise completes the drop inline.
  sim::Task<Status> DropKeyspace(Keyspace* ks);
  // The drop itself. Removes the table entry synchronously (before any
  // suspension, so no new command can find the dying keyspace), persists
  // the removal — the commit point — then releases the clusters.
  sim::Task<Status> FinishDrop(Keyspace* ks);
  // Runs a deferred drop once the keyspace is unpinned and idle.
  sim::Task<void> MaybeFinishPendingDelete(Keyspace* ks);

  // --- recovery helper (recovery.cc) ---
  // Replays the KLOG chain of a WRITABLE keyspace, or the delta log of a
  // COMPACTED one, after a restart: hands every entry to ApplyMutation in
  // zone order, truncates each zone's torn tail, then sets next_seq past
  // the newest entry.
  sim::Task<Status> ReplayLogs(Keyspace* ks);

  // Applies config.stats_prefix transitively (zns.stats_prefix) before
  // the members below are constructed from config_.
  static DeviceConfig Prefixed(DeviceConfig config);

  sim::Simulation* sim_;
  DeviceConfig config_;
  // Prefix-scoped stats recording for everything device-side; transparent
  // pass-through when config_.stats_prefix is empty.
  sim::StatsView stats_view_;
  // Trace track names, carrying config_.stats_prefix so per-device spans
  // stay separable ("shard0.device", "shard0.compaction", ...).
  std::string trk_device_;
  std::string trk_nvme_sq_;
  std::string trk_compaction_;
  std::string trk_query_;
  std::string trk_recovery_;
  nvme::QueueSet* queues_;
  storage::ZnsSsd ssd_;
  ZoneManager zone_manager_;
  KeyspaceManager keyspace_manager_;
  sim::CpuPool cpu_;
  IndexBlockCache index_cache_;
  // Index-block flash reads in flight, for ReadIndexBlock's single flight.
  std::map<BlockKey, std::shared_ptr<BlockRead>> block_reads_;
  // Mirrors config_.zns.faults (not owned); nullptr = no fault injection.
  sim::FaultInjector* faults_ = nullptr;
  // Wall time of the single dispatch core (MainLoop), per activity class.
  sim::ResourceMeter dispatch_meter_;
  // This device's id in the simulation's event ring (sim::Log), under
  // its trace track name; a Restart successor gets the same id.
  std::uint32_t log_device_;
  // The stage histograms, read off each command's ledger.
  sim::Histogram* queue_wait_ns_;
  sim::Histogram* dispatch_ns_;
  sim::Histogram* exec_ns_;
  // Per-opcode series of completed commands: "device.cmd.<op>", the
  // "device.cmd.<class>_ns" latency (null for unclassed opcodes) and
  // "device.cmd.<op>.errors", resolved on the opcode's first error, as
  // is the aggregate "device.cmd.errors".
  struct CommandSeries {
    sim::Counter* count;
    sim::Histogram* latency;
    sim::Counter* errors;
  };
  nvme::OpcodeTable<CommandSeries> cmd_series_;
  sim::Counter* cmd_errors_ = nullptr;

  // The timed I/O part of a flush, runs detached per batch.
  sim::Task<void> FlushIo(Keyspace* ks, WriteBuffer batch);

  // Appends this device's gauges ((name, value) pairs) for one telemetry
  // sample: NVMe SQ depth and in-flight counts, per-keyspace state and log
  // bytes, free/used zones per role, compaction progress.
  void CollectTelemetry(sim::TelemetrySampler::Gauges* out) const;

  std::uint64_t inflight_commands_ = 0;
  // Compactions started (kCompact spawn) and not yet finished.
  std::uint64_t compactions_running_ = 0;
  CompactionStats compaction_stats_;
  std::uint64_t telemetry_token_ = 0;
  bool started_ = false;
};

}  // namespace kvcsd::device
