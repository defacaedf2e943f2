#include "harness/report.h"

#include <algorithm>
#include <cstdio>

namespace kvcsd::harness {

std::string FormatSeconds(Tick ticks) {
  char buf[64];
  const double s = TicksToSeconds(ticks);
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

std::string FormatBytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= GiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / static_cast<double>(GiB(1)));
  } else if (bytes >= MiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", b / static_cast<double>(MiB(1)));
  } else if (bytes >= KiB(1)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / static_cast<double>(KiB(1)));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", ratio);
  return buf;
}

std::string FormatCount(std::uint64_t n) {
  char buf[32];
  if (n >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fB", static_cast<double>(n) / 1e9);
  } else if (n >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

void PrintCompactionStats(const std::string& title,
                          const device::CompactionStats& stats) {
  Table table(title, {"counter", "value"});
  table.AddRow({"flash bytes read", FormatBytes(stats.bytes_read)});
  table.AddRow({"flash bytes written", FormatBytes(stats.bytes_written)});
  table.AddRow({"runs spilled", FormatCount(stats.runs_spilled)});
  table.AddRow({"max merge fan-in", FormatCount(stats.max_merge_fanin)});
  table.AddRow({"phase-1 (run generation)", FormatSeconds(stats.phase1_ticks)});
  table.AddRow({"phase-2 (merge + index)", FormatSeconds(stats.phase2_ticks)});
  table.AddRow({"commit (blobs, persist, release)",
                FormatSeconds(stats.commit_ticks)});
  table.Print();
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace kvcsd::harness
