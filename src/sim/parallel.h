#ifndef XSSD_SIM_PARALLEL_H_
#define XSSD_SIM_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_pool.h"
#include "sim/time.h"

namespace xssd::sim {

/// \brief Bounded single-producer/single-consumer mailbox for cross-domain
/// events in the parallel scheduler backend.
///
/// One mailbox exists per ordered (source domain, target domain) pair. The
/// source worker pushes during a lookahead window; the coordinator drains at
/// the window barrier and merges the items into the target domain's inbox.
/// The ring indices use acquire/release atomics so a push is visible to the
/// drain without relying on the barrier alone; the overflow spill (hit only
/// when a single window emits more than kCapacity cross events) is plain
/// storage, safe because production and consumption phases never overlap —
/// the window barrier orders them.
///
/// Items are stamped by the *sender* — (when, key) where the key encodes
/// (cross bit, source domain, source issue index) — so the target's merge
/// order is independent of arrival timing. That stamp is what keeps the
/// parallel backend's per-domain event order byte-identical to the serial
/// wheel's.
class SpscMailbox {
 public:
  struct Item {
    SimTime when = 0;
    uint64_t key = 0;
    EventFn fn;
  };

  static constexpr std::size_t kCapacity = 1024;

  SpscMailbox() : ring_(kCapacity) {}
  SpscMailbox(const SpscMailbox&) = delete;
  SpscMailbox& operator=(const SpscMailbox&) = delete;

  /// Producer side (owning source worker only).
  void Push(SimTime when, uint64_t key, EventFn fn) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail < kCapacity) {
      Item& slot = ring_[head % kCapacity];
      slot.when = when;
      slot.key = key;
      slot.fn = std::move(fn);
      head_.store(head + 1, std::memory_order_release);
    } else {
      // Ring full inside one window: spill. Ordered after every ring item
      // of this window on drain, which is fine — the key, not arrival
      // order, decides execution order.
      spill_.push_back(Item{when, key, std::move(fn)});
      ++spilled_;
    }
  }

  /// Consumer side (coordinator, strictly between windows). Calls
  /// `f(when, key, fn&&)` for every queued item in push order.
  template <typename F>
  void Drain(F&& f) {
    std::size_t head = head_.load(std::memory_order_acquire);
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    while (tail != head) {
      Item& slot = ring_[tail % kCapacity];
      f(slot.when, slot.key, std::move(slot.fn));
      slot.fn = EventFn();
      ++tail;
    }
    tail_.store(tail, std::memory_order_release);
    for (Item& item : spill_) {
      f(item.when, item.key, std::move(item.fn));
    }
    spill_.clear();
  }

  /// Items that overflowed the ring (producer-side counter; read between
  /// windows or after the run).
  uint64_t spilled() const { return spilled_; }

 private:
  std::vector<Item> ring_;
  std::vector<Item> spill_;
  uint64_t spilled_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_PARALLEL_H_
