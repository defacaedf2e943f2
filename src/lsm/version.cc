#include "lsm/version.h"

#include <algorithm>
#include <cassert>

namespace kvcsd::lsm {

void VersionSet::AddFile(int level, std::shared_ptr<FileMeta> file) {
  auto& files = levels_[static_cast<std::size_t>(level)];
  files.push_back(std::move(file));
  if (level == 0) {
    // Newest (highest number) first: shadowing order for reads.
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) {
                return a->number > b->number;
              });
  } else {
    std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
      return Slice(a->smallest).compare(Slice(b->smallest)) < 0;
    });
  }
}

void VersionSet::RemoveFile(int level, std::uint64_t number) {
  auto& files = levels_[static_cast<std::size_t>(level)];
  std::erase_if(files,
                [number](const auto& f) { return f->number == number; });
}

std::uint64_t VersionSet::LevelBytes(int level) const {
  std::uint64_t total = 0;
  for (const auto& f : levels_[static_cast<std::size_t>(level)]) {
    total += f->size;
  }
  return total;
}

std::uint64_t VersionSet::TotalBytes() const {
  std::uint64_t total = 0;
  for (int level = 0; level < kNumLevels; ++level) {
    total += LevelBytes(level);
  }
  return total;
}

std::uint64_t VersionSet::TotalEntries() const {
  std::uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& f : level) total += f->entries;
  }
  return total;
}

int VersionSet::NumFiles() const {
  int n = 0;
  for (const auto& level : levels_) n += static_cast<int>(level.size());
  return n;
}

std::vector<std::shared_ptr<FileMeta>> VersionSet::Overlapping(
    int level, const Slice& smallest_user, const Slice& largest_user) const {
  std::vector<std::shared_ptr<FileMeta>> out;
  for (const auto& f : levels_[static_cast<std::size_t>(level)]) {
    if (f->largest_user().compare(smallest_user) < 0) continue;
    if (f->smallest_user().compare(largest_user) > 0) continue;
    out.push_back(f);
  }
  return out;
}

std::uint64_t VersionSet::TargetBytes(int level) const {
  if (level == 0) return 0;
  double target = static_cast<double>(level_base_size_);
  for (int l = 1; l < level; ++l) target *= kLevelMultiplier;
  return static_cast<std::uint64_t>(target);
}

int VersionSet::PickCompactionLevel(int l0_trigger,
                                    const std::set<int>& busy) const {
  auto eligible = [&busy](int level) {
    return !busy.contains(level) && !busy.contains(level + 1);
  };
  if (static_cast<int>(levels_[0].size()) >= l0_trigger && eligible(0)) {
    return 0;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (level_base_size_ == 0) break;
    if (LevelBytes(level) > TargetBytes(level) && eligible(level)) {
      return level;
    }
  }
  return -1;
}

std::vector<std::shared_ptr<FileMeta>> VersionSet::AllFiles() const {
  std::vector<std::shared_ptr<FileMeta>> out;
  for (const auto& level : levels_) {
    out.insert(out.end(), level.begin(), level.end());
  }
  return out;
}

}  // namespace kvcsd::lsm
