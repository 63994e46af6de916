#ifndef XSSD_SIM_INTERVAL_SET_H_
#define XSSD_SIM_INTERVAL_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

namespace xssd::sim {

/// \brief Set of disjoint byte intervals [begin, end) over a 64-bit stream
/// offset space, with merge-on-insert.
///
/// The CMB module uses this to tolerate *mostly sequential* arrival (paper
/// §4.1): out-of-order TLPs land as disjoint intervals, and the credit
/// counter may only advance over the contiguous prefix. A "gap" is any
/// missing range below the highest received offset.
class IntervalSet {
 public:
  /// Insert [begin, end); coalesces with abutting/overlapping intervals.
  /// An insert that overlaps or abuts its predecessor grows that interval
  /// in place, so in-order arrival (each chunk starting where the last
  /// one ended) makes and frees no map node.
  void Insert(uint64_t begin, uint64_t end) {
    if (begin >= end) return;
    // Find the first interval with key > begin, then step back to check the
    // predecessor for overlap/abutment.
    auto it = map_.upper_bound(begin);
    auto grow = map_.end();
    if (it != map_.begin() && std::prev(it)->second >= begin) {
      grow = std::prev(it);  // overlaps or abuts on the left
      end = std::max(end, grow->second);
    }
    while (it != map_.end() && it->first <= end) {  // swallow on the right
      end = std::max(end, it->second);
      it = map_.erase(it);
    }
    if (grow != map_.end()) {
      grow->second = end;
    } else {
      map_.emplace_hint(it, begin, end);
    }
  }

  /// Highest contiguous offset starting from `from`: every byte in
  /// [from, result) is present and byte `result` is missing.
  uint64_t ContiguousEnd(uint64_t from) const {
    auto it = map_.upper_bound(from);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->first <= from && prev->second > from) return prev->second;
    }
    if (it != map_.end() && it->first == from) return it->second;
    return from;
  }

  bool Contains(uint64_t offset) const {
    auto it = map_.upper_bound(offset);
    if (it == map_.begin()) return false;
    auto prev = std::prev(it);
    return prev->first <= offset && offset < prev->second;
  }

  /// True if any byte above `from` was received while some byte in
  /// [from, that byte) is missing — i.e. there is a hole.
  bool HasGapAfter(uint64_t from) const {
    uint64_t contiguous = ContiguousEnd(from);
    auto it = map_.upper_bound(contiguous);
    return it != map_.end();
  }

  size_t interval_count() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.clear(); }

  /// Drop all interval data at or above `above` (truncated suffix).
  void TrimAbove(uint64_t above) {
    auto it = map_.lower_bound(above);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > above) prev->second = above;
    }
    map_.erase(it, map_.end());
  }

  /// Drop all interval data below `below` (already consumed / destaged).
  void TrimBelow(uint64_t below) {
    auto it = map_.begin();
    while (it != map_.end() && it->second <= below) it = map_.erase(it);
    if (it != map_.end() && it->first < below) {
      // Re-key the first interval in its own node: it stays the first.
      auto node = map_.extract(it);
      node.key() = below;
      map_.insert(map_.begin(), std::move(node));
    }
  }

 private:
  std::map<uint64_t, uint64_t> map_;  // begin -> end
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_INTERVAL_SET_H_
