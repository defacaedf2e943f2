// Crash-point sweep: the fault-injection harness for the device path.
//
// One sweep case runs a fixed client workload (creates, acknowledged
// syncs, a drop, with >2 keyspaces also a drop deferred behind a running
// compaction, optionally a leg of concurrent compactions, index builds and
// drops, a compaction, queries) against a small fault-injected device,
// crashes it at the k-th crash-point pass, power-cycles it
// (Device::Restart + Recover) and verifies the recovery invariants:
//
//   * no acknowledged data is lost — every key covered by a Sync that
//     returned OK is queryable with its exact value after recovery;
//   * nothing is invented — every recovered key was actually sent;
//   * an acknowledged drop stays dropped, an acknowledged create exists,
//     an acknowledged secondary index answers for every key;
//   * no keyspace is left COMPACTING;
//   * zone accounting is consistent — reserved + cluster-owned + free
//     zones partition the device, and unowned zones are empty.
//
// Running the case for k = 1 .. total-hit-count (the dry run, k = 0,
// reports the count) exhaustively crashes the workload at every named
// crash point it passes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "kvcsd/device.h"
#include "sim/fault.h"

namespace kvcsd::harness {

// Fraction of the in-flight append surviving a sweep's power cut (torn
// tail).
inline constexpr double kCrashSweepTornTailKeep = 0.5;

struct CrashSweepConfig {
  std::uint32_t keyspaces = 2;
  std::uint32_t keys_per_keyspace = 240;
  std::uint32_t value_bytes = 24;
  std::uint64_t seed = 42;
  // Zone geometry. Shrinking zones makes the metadata zone wrap during
  // the workload, which is the only way to reach the ping-pong crash
  // points (meta.before_reset / meta.after_reset) in a sweep. Post-crash
  // verification compacts every surviving keyspace, so the pool must fit
  // keyspaces * 2 log clusters plus compaction scratch clusters
  // (2 TEMP + SORTED_VALUES + PIDX each) — two compactions can overlap
  // when the workload runs the deferred-drop leg (keyspaces > 2), and
  // the drop that frees two clusters may not have happened yet.
  std::uint64_t zone_bytes = KiB(256);
  std::uint32_t num_zones = 64;
  std::uint64_t write_buffer_bytes = KiB(2);
  // Concurrent metadata leg (needs >= 4 keyspaces): every keyspace but the
  // first two and the last compacts at once; the even ones then build a
  // secondary index, the odd ones are dropped while their compaction
  // runs. Their persists (compaction commits, index commits, drop
  // tombstones) all race through the metadata group commit.
  bool concurrent_leg = false;
  // The device's sort budget (0: its default). A few KiB makes every
  // compaction spill its key runs to TEMP clusters, where the default
  // budget keeps the sweep's small key logs in DRAM.
  std::uint64_t sort_run_bytes = 0;

  // A deliberately small device so the workload exercises multi-cluster
  // logs and real compactions in milliseconds of wall time.
  device::DeviceConfig DeviceConfigFor(sim::FaultInjector* faults) const {
    device::DeviceConfig d;
    d.zns.zone_size = zone_bytes;
    d.zns.num_zones = num_zones;
    d.zns.nand.channels = 8;
    d.zns.faults = faults;
    d.dram_bytes = KiB(512);
    d.write_buffer_bytes = write_buffer_bytes;
    d.sort_run_bytes = sort_run_bytes;
    // Compaction output batches are single zone appends; keep them well
    // under the zone size or every compaction fails on tiny-zone sweeps.
    d.output_batch_bytes = std::min<std::uint64_t>(KiB(16), zone_bytes / 4);
    return d;
  }
};

struct CrashSweepReport {
  std::uint64_t hits = 0;   // crash-point passes during the workload phase
  // The same passes per crash point, by name.
  std::map<std::string, std::uint64_t> passes;
  bool fired = false;       // whether the armed crash actually triggered
  std::string crash_point;  // the point that fired (empty otherwise)
  Tick recovery_ticks = 0;  // simulated duration of Device::Recover()
  // TEMP bytes the workload phase appended (spilled key runs).
  std::uint64_t temp_bytes_written = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

// Runs one sweep case, crashing at the `crash_at_hit`-th crash-point pass
// (1-based; 0 = never crash — the dry run that measures `hits`). The
// device is always power-cycled and recovered afterwards, so the k = 0
// case also verifies clean-shutdown recovery. Returns an error only for
// harness-level failures; invariant breaches land in the report.
Result<CrashSweepReport> RunCrashSweepCase(const CrashSweepConfig& config,
                                           std::uint64_t crash_at_hit);

}  // namespace kvcsd::harness
