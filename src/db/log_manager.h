#ifndef XSSD_DB_LOG_MANAGER_H_
#define XSSD_DB_LOG_MANAGER_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "db/log_backend.h"
#include "sim/simulator.h"

namespace xssd::db {

/// \brief LogManager configuration.
struct LogManagerConfig {
  /// Group-commit trigger: the system waits for this much log before it
  /// commits (paper §6.1: 16 KB).
  uint64_t group_bytes = 16 * 1024;
  /// A flush takes everything accumulated up to this cap (the backlog a
  /// single QD1 flush can retire at once — multiple flash pages program in
  /// parallel across dies).
  uint64_t max_flush_bytes = 64 * 1024;
  /// If a partial group has waited this long, flush it anyway.
  sim::SimTime flush_timeout = sim::Ms(5);
  /// In-memory log buffer cap: appends stall (back-pressure on workers)
  /// when this much data is awaiting durability.
  uint64_t max_buffer_bytes = 256 * 1024;
};

/// \brief Write-ahead log with pipelined group commit, ERMIA style.
///
/// Workers append serialized records and register durability waiters at
/// their commit LSN, then continue with the next transaction; the manager
/// flushes `group_bytes` units through the LogBackend at queue depth 1 and
/// resolves waiters as the durable LSN advances. When the backend cannot
/// keep up, the buffer cap stalls appends — which is exactly how the
/// conventional side's latency turns into the ~200 ktxn/s throughput
/// ceiling in Figure 9.
class LogManager {
 public:
  LogManager(sim::Simulator* sim, LogBackend* backend,
             LogManagerConfig config = {});

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Can `len` more bytes be buffered right now?
  bool HasSpace(size_t len) const {
    return buffered_bytes_ + len <= config_.max_buffer_bytes;
  }

  /// Call `ready` once HasSpace(len) holds (immediately if it already does).
  void WaitForSpace(size_t len, std::function<void()> ready);

  /// Append serialized record bytes; returns the end LSN. The caller must
  /// have checked HasSpace (appends beyond the cap are still accepted but
  /// push the buffer over; workers are expected to WaitForSpace first).
  uint64_t Append(const uint8_t* data, size_t len) {
    return AppendInPlace(len, [&](uint8_t* out) {
      if (len > 0) std::memcpy(out, data, len);
    });
  }

  /// Append as above, but `fill(uint8_t* out)` writes the `len` bytes
  /// straight into the group-commit buffer. It must write all of them and
  /// must not call back into the manager.
  template <typename Fill>
  uint64_t AppendInPlace(size_t len, Fill&& fill) {
    fill(Reserve(len));
    return Publish(len);
  }

  /// Call `committed` once durable_lsn >= lsn.
  void WaitDurable(uint64_t lsn, std::function<void(Status)> committed);

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  uint64_t flushes_issued() const { return flushes_issued_; }

  LogBackend* backend() { return backend_; }

 private:
  /// Grow the buffer by `len` bytes and return them; Publish makes them
  /// part of the log.
  uint8_t* Reserve(size_t len);
  uint64_t Publish(size_t len);
  void MaybeFlush();
  void FlushGroup(size_t len);
  void ArmTimer();
  void ResolveWaiters();
  size_t PendingBytes() const;
  void Compact();

  sim::Simulator* sim_;
  LogBackend* backend_;
  LogManagerConfig config_;

  std::vector<uint8_t> buffer_;   ///< bytes appended, not yet flushed
  size_t head_ = 0;               ///< consumed prefix of buffer_
  uint64_t next_lsn_ = 0;         ///< byte-offset LSN of the next append
  uint64_t durable_lsn_ = 0;
  uint64_t buffered_bytes_ = 0;   ///< bytes appended, not yet durable
  bool flushing_ = false;
  bool timer_armed_ = false;
  sim::SimTime oldest_pending_since_ = 0;
  uint64_t flushes_issued_ = 0;

  struct Waiter {
    uint64_t lsn;
    std::function<void(Status)> committed;
  };
  std::deque<Waiter> waiters_;  ///< commit waiters ordered by LSN

  struct SpaceWaiter {
    size_t len;
    std::function<void()> ready;
  };
  std::deque<SpaceWaiter> space_waiters_;
};

}  // namespace xssd::db

#endif  // XSSD_DB_LOG_MANAGER_H_
