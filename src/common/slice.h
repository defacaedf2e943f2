// Slice: a non-owning view of bytes with key-comparison helpers, in the
// LevelDB tradition but built on std::string_view semantics.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace kvcsd {

class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* data, std::size_t size) : data_(data), size_(size) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT
  Slice(const char* s) : data_(s), size_(std::strlen(s)) {}          // NOLINT
  Slice(std::span<const std::byte> s)                                // NOLINT
      : data_(reinterpret_cast<const char*>(s.data())), size_(s.size()) {}

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  void remove_prefix(std::size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::span<const std::byte> bytes() const {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(data_), size_);
  }

  int compare(const Slice& b) const {
    const std::size_t min_len = size_ < b.size_ ? size_ : b.size_;
    int r = std::memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) return -1;
      if (size_ > b.size_) return +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           std::memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  std::size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

}  // namespace kvcsd
