#ifndef XSSD_COMMON_ZEROED_TABLE_H_
#define XSSD_COMMON_ZEROED_TABLE_H_

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace xssd {

/// \brief A fixed-size table of `T` that reads as all zeros when made and
/// takes memory only where it is written.
///
/// The storage is one anonymous mapping: the kernel supplies a zeroed page
/// at its first touch, so a device-sized table of which a run writes a few
/// thousand entries costs a few pages, not a memset of the whole table, and
/// the destructor hands every page back. `calloc` gives this only while
/// glibc serves the block from a fresh mapping, which depends on allocator
/// state the rest of the process changes: the dynamic mmap threshold rises
/// at the first free of a large mapped block, and from then on calloc
/// memsets recycled heap memory.
///
/// Indexing asserts the bound in Debug builds. The address sanitizer does
/// not see the end of a mapping, so this is what keeps an out-of-range
/// index loud there.
template <typename T>
class ZeroedTable {
  static_assert(std::is_trivially_copyable_v<T>,
                "a zero-filled page must be a valid T");

 public:
  explicit ZeroedTable(size_t size) : size_(size) {
    if (size_ == 0) return;
    XSSD_CHECK(size_ <= SIZE_MAX / sizeof(T));
    void* mapping = mmap(nullptr, MappedBytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    XSSD_CHECK(mapping != MAP_FAILED);
    data_ = static_cast<T*>(mapping);
  }
  ~ZeroedTable() {
    if (data_ != nullptr) munmap(data_, MappedBytes());
  }

  ZeroedTable(ZeroedTable&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroedTable& operator=(ZeroedTable&& other) noexcept {
    ZeroedTable moved(std::move(other));
    std::swap(data_, moved.data_);
    std::swap(size_, moved.size_);
    return *this;
  }
  ZeroedTable(const ZeroedTable&) = delete;
  ZeroedTable& operator=(const ZeroedTable&) = delete;

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  friend bool operator==(const ZeroedTable& a, const ZeroedTable& b) {
    return std::equal(a.data_, a.data_ + a.size_, b.data_, b.data_ + b.size_);
  }

 private:
  size_t MappedBytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  size_t size_;
};

}  // namespace xssd

#endif  // XSSD_COMMON_ZEROED_TABLE_H_
