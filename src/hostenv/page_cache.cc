#include "hostenv/page_cache.h"

namespace kvcsd::hostenv {

bool PageCache::Lookup(std::uint64_t file_id, std::uint64_t block) {
  auto it = map_.find(KeyOf(file_id, block));
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return true;
}

void PageCache::Insert(std::uint64_t file_id, std::uint64_t block) {
  const std::uint64_t key = KeyOf(file_id, block);
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(key);
  map_[key] = lru_.begin();
  by_file_[FileOf(key)].insert(key);
  while (map_.size() > capacity_pages_ && !lru_.empty()) Erase(lru_.back());
}

void PageCache::Erase(std::uint64_t key) {
  auto it = map_.find(key);
  lru_.erase(it->second);
  map_.erase(it);
  auto file = by_file_.find(FileOf(key));
  file->second.erase(key);
  if (file->second.empty()) by_file_.erase(file);
}

void PageCache::InvalidateFile(std::uint64_t file_id) {
  auto file = by_file_.find(file_id);
  if (file == by_file_.end()) return;
  for (std::uint64_t key : file->second) {
    auto it = map_.find(key);
    lru_.erase(it->second);
    map_.erase(it);
  }
  by_file_.erase(file);
}

void PageCache::DropAll() {
  lru_.clear();
  map_.clear();
  by_file_.clear();
}

}  // namespace kvcsd::hostenv
