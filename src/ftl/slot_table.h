#ifndef XSSD_FTL_SLOT_TABLE_H_
#define XSSD_FTL_SLOT_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace xssd::ftl {

/// \brief Records of the operations a layer has in flight, each named by a
/// slot index that is reused once its operation ends.
///
/// A completion that crosses a layer captures {owner, slot}: 16 bytes,
/// which std::function and sim::EventFn both hold without allocating. The
/// table grows to the peak number of records in flight and then allocates
/// no more. Add() may move every record, so callers reach a record through
/// its index and keep no reference across a call that can add one.
template <typename T>
class SlotTable {
 public:
  uint32_t Add(T&& record) {
    if (free_.empty()) {
      slots_.push_back(std::move(record));
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(record);
    return slot;
  }

  T& operator[](uint32_t slot) { return slots_[slot]; }
  const T& operator[](uint32_t slot) const { return slots_[slot]; }

  /// Move the record out and free its slot.
  T Take(uint32_t slot) {
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace xssd::ftl

#endif  // XSSD_FTL_SLOT_TABLE_H_
