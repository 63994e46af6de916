#ifndef XSSD_SIM_TIMER_WHEEL_H_
#define XSSD_SIM_TIMER_WHEEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "sim/event_pool.h"
#include "sim/time.h"

namespace xssd::sim {

/// \brief Hierarchical timer wheel: the fast scheduler backend.
///
/// Eight levels of 64 slots each, so level k buckets events whose
/// timestamp first differs from the current time in bit window
/// [6k, 6k+6); together the levels cover a 2^48 ns (~3.2 simulated days)
/// horizon, and anything beyond parks in a small overflow heap until the
/// clock gets close. Insert is O(1): one XOR + count-leading-zeros picks
/// the level, and the event is appended to an intrusive bucket list.
/// Finding the next event scans one 64-bit occupancy bitmap per level.
/// As the clock crosses a slot boundary, that slot's bucket cascades to
/// lower levels — each event cascades at most kLevels-1 times over its
/// lifetime, so dequeue is amortized O(1) as well (vs O(log n) sift in a
/// binary heap, with far better locality for the clustered near-future
/// timestamps PCIe/flash/NTB latencies produce).
///
/// Determinism: events are totally ordered by (when, seq). A level-0
/// bucket holds events of one exact timestamp in insertion order, and
/// cascades/migrations preserve relative order of equal timestamps, so
/// PopNext yields exactly the same sequence as the legacy binary heap —
/// campaign metrics diff byte-for-byte across backends (CI enforces it).
class TimerWheel {
 public:
  static constexpr int kLevelBits = 6;
  static constexpr int kLevels = 8;
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  /// Events with `when ^ now` at or above this bit go to overflow.
  static constexpr int kHorizonBits = kLevelBits * kLevels;  // 48
  /// Sentinel returned by PeekNextTime when no event is at or below the
  /// limit (doubles as the "unbounded" limit value).
  static constexpr SimTime kNoEvent = ~SimTime{0};

  using Node = EventPool::Node;

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  SimTime now() const { return now_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Insert an event node. Precondition: n->when >= now().
  void Insert(Node* n) {
    XSSD_CHECK(n->when >= now_);
    ++size_;
    uint64_t x = n->when ^ now_;
    if ((x >> kHorizonBits) != 0) {
      overflow_.push(n);
      return;
    }
    InsertWheel(n, x);
  }

  /// Exact timestamp of the earliest pending event if it is <= `limit`;
  /// kNoEvent otherwise (or when empty). Resolving the minimum may advance
  /// the wheel clock — cascading slots, migrating overflow — but never past
  /// `limit`, so a caller that must stay insertable below some horizon (a
  /// RunUntil deadline) passes that horizon as the limit.
  SimTime PeekNextTime(SimTime limit) {
    while (size_ != 0) {
      // Level-0 candidate: exact, since a level-0 bucket holds exactly one
      // timestamp. Always the wheel minimum when present (level >= 1 slots
      // all start after the current level-1 slot ends).
      uint64_t m0 = bitmap_[0] & (~uint64_t{0} << (now_ & kSlotMask));
      Node* ov = overflow_.empty() ? nullptr : overflow_.top();
      if (m0 != 0) {
        int s = std::countr_zero(m0);
        SimTime t0 = (now_ & ~kSlotMask) | static_cast<uint64_t>(s);
        // An overflow event can never tie a wheel event: it would already
        // have migrated when the clock entered its 2^48 epoch.
        if (ov == nullptr || t0 < ov->when) {
          return t0 > limit ? kNoEvent : t0;
        }
      }
      // Otherwise the earliest work is either a not-yet-cascaded slot at
      // some higher level (known only as a lower bound: its slot start) or
      // the overflow head. Advance the clock there — which cascades or
      // migrates — and rescan.
      SimTime lb = 0;
      bool have_lb = false;
      for (int k = 1; k < kLevels; ++k) {
        int shift = k * kLevelBits;
        uint64_t cur = (now_ >> shift) & kSlotMask;
        uint64_t m = bitmap_[k] & (~uint64_t{0} << cur);
        if (m != 0) {
          uint64_t s = static_cast<uint64_t>(std::countr_zero(m));
          uint64_t epoch_mask = ~uint64_t{0} << (shift + kLevelBits);
          lb = (now_ & epoch_mask) | (s << shift);
          have_lb = true;
          break;
        }
      }
      if (ov != nullptr && (!have_lb || ov->when <= lb)) {
        if (ov->when > limit) return kNoEvent;
        AdvanceTo(ov->when);  // migrates the overflow head into the wheel
        continue;
      }
      XSSD_CHECK(have_lb);  // size_ > 0, so somewhere an event exists
      if (lb > limit) return kNoEvent;
      AdvanceTo(lb);
    }
    return kNoEvent;
  }

  /// Pop the globally earliest event if its timestamp is <= `bound`;
  /// returns nullptr otherwise. May advance the wheel clock up to the
  /// popped event's timestamp (never past `bound`).
  Node* PopNext(SimTime bound) {
    SimTime t = PeekNextTime(bound);
    if (t == kNoEvent) return nullptr;
    // After a successful peek the minimum is a level-0 candidate (overflow
    // heads migrate into the wheel while the peek resolves lower bounds).
    uint64_t m0 = bitmap_[0] & (~uint64_t{0} << (now_ & kSlotMask));
    Node* n = PopHead(0, std::countr_zero(m0));
    AdvanceTo(t);
    return n;
  }

  /// Move the wheel clock to `t`, cascading every slot that becomes
  /// current and pulling overflow events that enter the horizon. All
  /// remaining events must satisfy when >= t... callers advance only to
  /// a known event time, a proven lower bound, or a RunUntil deadline.
  void AdvanceTo(SimTime t) {
    if (t <= now_) return;
    SimTime old = now_;
    now_ = t;
    uint64_t delta = old ^ t;
    if ((delta >> kLevelBits) == 0) return;  // same level-1 slot: no slots
                                             // became current
    for (int k = kLevels - 1; k >= 1; --k) {
      int shift = k * kLevelBits;
      if ((old >> shift) == (t >> shift)) continue;
      int s = static_cast<int>((t >> shift) & kSlotMask);
      if (bitmap_[k] & (uint64_t{1} << s)) Cascade(k, s);
    }
    if ((delta >> kHorizonBits) != 0) MigrateOverflow();
  }

  /// Destroy (via `pool`) every event still pending. Called from the
  /// simulator destructor so captured resources are released.
  void ReleaseAll(EventPool* pool) {
    for (int k = 0; k < kLevels; ++k) {
      for (int s = 0; s < kSlots; ++s) {
        Node* n = buckets_[k][s].head;
        while (n != nullptr) {
          Node* next = n->next;
          pool->Release(n);
          n = next;
        }
        buckets_[k][s] = Bucket{};
      }
      bitmap_[k] = 0;
    }
    while (!overflow_.empty()) {
      pool->Release(overflow_.top());
      overflow_.pop();
    }
    size_ = 0;
  }

 private:
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  struct OverflowLater {
    bool operator()(const Node* a, const Node* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  void InsertWheel(Node* n, uint64_t x) {
    int level = x == 0 ? 0 : (63 - std::countl_zero(x)) / kLevelBits;
    int slot = static_cast<int>((n->when >> (level * kLevelBits)) & kSlotMask);
    Bucket& b = buckets_[level][slot];
    n->next = nullptr;
    if (b.tail == nullptr) {
      b.head = b.tail = n;
      bitmap_[level] |= uint64_t{1} << slot;
    } else {
      b.tail->next = n;
      b.tail = n;
    }
  }

  Node* PopHead(int level, int slot) {
    Bucket& b = buckets_[level][slot];
    Node* n = b.head;
    b.head = n->next;
    if (b.head == nullptr) {
      b.tail = nullptr;
      bitmap_[level] &= ~(uint64_t{1} << slot);
    }
    --size_;
    return n;
  }

  /// Redistribute a slot that just became current to lower levels,
  /// preserving list (and thus equal-timestamp FIFO) order.
  void Cascade(int level, int slot) {
    Bucket& b = buckets_[level][slot];
    Node* n = b.head;
    b.head = b.tail = nullptr;
    bitmap_[level] &= ~(uint64_t{1} << slot);
    while (n != nullptr) {
      Node* next = n->next;
      InsertWheel(n, n->when ^ now_);
      n = next;
    }
  }

  /// Pull overflow events whose timestamp entered the wheel horizon. The
  /// overflow heap yields them in (when, seq) order, and at a horizon
  /// crossing the wheel holds no event sharing their epoch, so FIFO
  /// tie-break order is preserved.
  void MigrateOverflow() {
    while (!overflow_.empty() &&
           ((overflow_.top()->when ^ now_) >> kHorizonBits) == 0) {
      Node* n = overflow_.top();
      overflow_.pop();
      InsertWheel(n, n->when ^ now_);
    }
  }

  SimTime now_ = 0;
  std::size_t size_ = 0;
  uint64_t bitmap_[kLevels] = {};
  Bucket buckets_[kLevels][kSlots];
  std::priority_queue<Node*, std::vector<Node*>, OverflowLater> overflow_;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_TIMER_WHEEL_H_
