#ifndef XSSD_SIM_TIMER_WHEEL_H_
#define XSSD_SIM_TIMER_WHEEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "sim/event_pool.h"
#include "sim/time.h"

namespace xssd::sim {

/// \brief Hierarchical timer wheel: the fast scheduler backend.
///
/// Level 0 holds exact timestamps: 4096 one-nanosecond slots covering the
/// current aligned 2^12 ns (4.096 µs) window, found through a 64-word
/// occupancy bitmap plus one summary word. Above it, six levels of 64
/// slots each: level k (1..6) buckets events whose timestamp first differs
/// from the current time in bit window [6k+6, 6k+12). Together they cover
/// a 2^48 ns (~3.2 simulated days) horizon, and anything beyond parks in a
/// small overflow heap until the clock gets close.
///
/// Level 0 is this wide because the model's events are mostly due
/// 0.25–4 µs ahead (PCIe and NTB hops, credit polls, flash bus transfers):
/// one due inside the current window goes straight to its final slot and
/// never moves again, where a level 0 narrower than those delays would
/// insert nearly every one twice (into level 1, then again on its
/// cascade). It is the usual hashed/hierarchical timing-wheel trade
/// (Varghese & Lauck, SOSP 1987) of 64 KiB of buckets for one insert per
/// near event.
///
/// Insert is O(1): one XOR + count-leading-zeros picks the level, and the
/// event is appended to an intrusive bucket list. Finding the next event
/// reads the level-0 summary word, else scans one 64-bit occupancy bitmap
/// per upper level. As the clock crosses an upper slot boundary, that
/// slot's bucket cascades to lower levels — each event cascades at most
/// kLevels-1 times over its lifetime, so dequeue is amortized O(1) as well
/// (vs O(log n) sift in a binary heap, with far better locality for the
/// clustered near-future timestamps PCIe/flash/NTB latencies produce).
///
/// Determinism: events are totally ordered by (when, seq). A level-0
/// bucket holds events of one exact timestamp in insertion order, and
/// cascades/migrations preserve relative order of equal timestamps, so
/// PopNext yields exactly the same sequence as the reference binary heap —
/// campaign metrics diff byte-for-byte across backends (gates enforce it).
class TimerWheel {
 public:
  /// Level 0: exact timestamps over an aligned 2^12 ns window.
  static constexpr int kLevel0Bits = 12;
  static constexpr int kLevel0Slots = 1 << kLevel0Bits;
  static constexpr uint64_t kLevel0Mask = kLevel0Slots - 1;
  /// Levels 1..kUpperLevels: 64 slots of 6 bits each.
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr int kUpperLevels = 6;
  static constexpr int kLevels = 1 + kUpperLevels;
  /// Events with `when ^ now` at or above this bit go to overflow.
  static constexpr int kHorizonBits =
      kLevel0Bits + kLevelBits * kUpperLevels;  // 48
  /// Sentinel returned by PeekNextTime when no event is at or below the
  /// limit (doubles as the "unbounded" limit value).
  static constexpr SimTime kNoEvent = ~SimTime{0};

  /// Log2 of one slot's span at `level`: 0 (1 ns) at level 0, then 12, 18,
  /// ..., 42 for levels 1..6. A level-k slot covers 2^SlotShift(k) ns.
  static constexpr int SlotShift(int level) {
    return level == 0 ? 0 : kLevel0Bits + (level - 1) * kLevelBits;
  }

  using Node = EventPool::Node;

  TimerWheel() : level0_(std::make_unique<Bucket[]>(kLevel0Slots)) {}
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
      // Level 0 holds the current window's events, which precede every
      // upper-level slot (those start in a later window) and every
      // overflow event (those lie in a later 2^48 epoch: an event of the
      // current epoch migrated when the clock entered it).
      if (level0_summary_ != 0) {
        SimTime t0 = (now_ & ~kLevel0Mask) | Level0First();
        return t0 > limit ? kNoEvent : t0;
      }
      // Otherwise the earliest work is a not-yet-cascaded slot at some
      // upper level (known only as a lower bound: its slot start), or the
      // overflow head when every level is empty. Advance the clock there —
      // which cascades or migrates — and rescan.
      SimTime next = kNoEvent;
      for (int k = 1; k < kLevels; ++k) {
        int shift = SlotShift(k);
        uint64_t cur = (now_ >> shift) & kSlotMask;
        uint64_t m = upper_bitmap_[k - 1] & (~uint64_t{0} << cur);
        if (m != 0) {
          uint64_t s = static_cast<uint64_t>(std::countr_zero(m));
          uint64_t epoch_mask = ~uint64_t{0} << (shift + kLevelBits);
          next = (now_ & epoch_mask) | (s << shift);
          break;
        }
      }
      if (next == kNoEvent) {
        XSSD_CHECK(!overflow_.empty());  // size_ > 0, so an event exists
        next = overflow_.top()->when;  // AdvanceTo migrates it in
      }
      if (next > limit) return kNoEvent;
      AdvanceTo(next);
    }
    return kNoEvent;
  }

  /// Pop the globally earliest event if its timestamp is <= `bound`;
  /// returns nullptr otherwise. May advance the wheel clock up to the
  /// popped event's timestamp (never past `bound`).
  Node* PopNext(SimTime bound) {
    // With level 0 empty, resolving the minimum cascades it into level 0.
    if (level0_summary_ == 0 && PeekNextTime(bound) == kNoEvent) {
      return nullptr;
    }
    uint64_t s = Level0First();
    SimTime t = (now_ & ~kLevel0Mask) | s;
    if (t > bound) return nullptr;
    Bucket& b = level0_[s];
    Node* n = b.head;
    b.head = n->next;
    if (b.head == nullptr) {
      b.tail = nullptr;
      uint64_t& word = level0_words_[s / 64];
      word &= ~(uint64_t{1} << (s % 64));
      if (word == 0) level0_summary_ &= ~(uint64_t{1} << (s / 64));
    }
    --size_;
    now_ = t;  // same level-0 window: no slot becomes current
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
    if ((delta >> kLevel0Bits) == 0) return;  // same level-0 window: no
                                              // slots became current
    for (int k = kLevels - 1; k >= 1; --k) {
      int shift = SlotShift(k);
      if ((old >> shift) == (t >> shift)) continue;
      int s = static_cast<int>((t >> shift) & kSlotMask);
      if (upper_bitmap_[k - 1] & (uint64_t{1} << s)) Cascade(k, s);
    }
    if ((delta >> kHorizonBits) != 0) MigrateOverflow();
  }

  /// Destroy (via `pool`) every event still pending. Called from the
  /// simulator destructor so captured resources are released.
  void ReleaseAll(EventPool* pool) {
    auto release = [pool](Bucket& b) {
      Node* n = b.head;
      while (n != nullptr) {
        Node* next = n->next;
        pool->Release(n);
        n = next;
      }
      b = Bucket{};
    };
    for (int s = 0; s < kLevel0Slots; ++s) release(level0_[s]);
    for (uint64_t& word : level0_words_) word = 0;
    level0_summary_ = 0;
    for (int k = 0; k < kUpperLevels; ++k) {
      for (Bucket& b : upper_[k]) release(b);
      upper_bitmap_[k] = 0;
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

  /// Offset in the level-0 window of the earliest level-0 event.
  /// Precondition: level 0 is not empty.
  uint64_t Level0First() const {
    int w = std::countr_zero(level0_summary_);
    return static_cast<uint64_t>(w) * 64 +
           static_cast<uint64_t>(std::countr_zero(level0_words_[w]));
  }

  static void Append(Bucket& b, Node* n) {
    if (b.tail == nullptr) {
      b.head = b.tail = n;
    } else {
      b.tail->next = n;
      b.tail = n;
    }
  }

  void InsertWheel(Node* n, uint64_t x) {
    n->next = nullptr;
    if ((x >> kLevel0Bits) == 0) {
      uint64_t s = n->when & kLevel0Mask;
      Append(level0_[s], n);
      level0_words_[s / 64] |= uint64_t{1} << (s % 64);
      level0_summary_ |= uint64_t{1} << (s / 64);
      return;
    }
    int k = 1 + (63 - std::countl_zero(x) - kLevel0Bits) / kLevelBits;
    int slot = static_cast<int>((n->when >> SlotShift(k)) & kSlotMask);
    Append(upper_[k - 1][slot], n);
    upper_bitmap_[k - 1] |= uint64_t{1} << slot;
  }

  /// Redistribute a level-k slot that just became current to lower
  /// levels, preserving list (and thus equal-timestamp FIFO) order.
  void Cascade(int k, int slot) {
    Bucket& b = upper_[k - 1][slot];
    Node* n = b.head;
    b = Bucket{};
    upper_bitmap_[k - 1] &= ~(uint64_t{1} << slot);
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
  /// Level 0's 4096 buckets (64 KiB) live on the heap, so a Simulator on
  /// the stack stays small; bit s of words_[s / 64] marks bucket s busy,
  /// and bit w of the summary marks words_[w] non-zero.
  std::unique_ptr<Bucket[]> level0_;
  uint64_t level0_words_[kLevel0Slots / 64] = {};
  uint64_t level0_summary_ = 0;
  uint64_t upper_bitmap_[kUpperLevels] = {};
  Bucket upper_[kUpperLevels][kSlots];
  std::priority_queue<Node*, std::vector<Node*>, OverflowLater> overflow_;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_TIMER_WHEEL_H_
