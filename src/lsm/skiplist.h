// Skiplist keyed by length-prefixed entries in an Arena, in the LevelDB
// memtable tradition. The simulation is single-threaded, so no atomics are
// needed; structure and proportions (12 levels, 1/4 branching) match the
// original so CPU-cost modelling of inserts/lookups is honest about depth.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/random.h"
#include "lsm/arena.h"

namespace kvcsd::lsm {

// Comparator: int operator()(const char* a, const char* b) three-way.
template <typename Comparator>
class SkipList {
 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(nullptr, kMaxHeight)),
        rng_(0xdecafbadull) {
    for (int i = 0; i < kMaxHeight; ++i) head_->SetNext(i, nullptr);
  }
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Inserts key (no duplicates allowed: internal keys are unique by
  // construction since sequence numbers are unique).
  void Insert(const char* key) {
    Node* prev[kMaxHeight];
    Node* x = FindGreaterOrEqual(key, prev);
    assert(x == nullptr || compare_(key, x->key()) != 0);

    const int node_height = RandomHeight();
    if (node_height > height_) {
      for (int i = height_; i < node_height; ++i) prev[i] = head_;
      height_ = node_height;
    }
    x = NewNode(key, node_height);
    for (int i = 0; i < node_height; ++i) {
      x->SetNext(i, prev[i]->Next(i));
      prev[i]->SetNext(i, x);
    }
    ++size_;
  }

  bool Contains(const char* key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && compare_(key, x->key()) == 0;
  }

  std::size_t size() const { return size_; }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const char* key() const {
      assert(Valid());
      return node_->key();
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Seek(const char* target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  // A node occupies arena memory as its key pointer followed by one next
  // pointer per level. Arena allocations carry no alignment (memtable
  // entries pack back to back), so the fields are only ever copied in and
  // out with memcpy, never read through a typed, possibly misaligned
  // pointer.
  struct Node {
    const char* key() const { return Load<const char*>(0); }
    Node* Next(int level) const { return Load<Node*>(1 + level); }
    void SetNext(int level, Node* node) { Store(1 + level, node); }
    void SetKey(const char* key) { Store(0, key); }

   private:
    template <typename T>
    T Load(int slot) const {
      T value;
      const char* at = reinterpret_cast<const char*>(this) + slot * sizeof(T);
      std::memcpy(&value, at, sizeof(T));
      return value;
    }
    template <typename T>
    void Store(int slot, T value) {
      char* at = reinterpret_cast<char*>(this) + slot * sizeof(T);
      std::memcpy(at, &value, sizeof(T));
    }
  };
  static_assert(sizeof(const char*) == sizeof(Node*));

  Node* NewNode(const char* key, int node_height) {
    // The key pointer, then one next pointer per level.
    char* mem = arena_->Allocate(sizeof(Node*) * (1 + node_height));
    Node* node = new (mem) Node;
    node->SetKey(key);
    return node;
  }

  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && rng_.OneIn(kBranching)) ++h;
    return h;
  }

  // Returns first node >= key; fills prev[] when non-null.
  Node* FindGreaterOrEqual(const char* key, Node** prev) const {
    Node* x = head_;
    int level = height_ - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key(), key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  Comparator compare_;
  Arena* arena_;
  Node* head_;
  Rng rng_;
  int height_ = 1;
  std::size_t size_ = 0;
};

}  // namespace kvcsd::lsm
