#include "db/log_manager.h"
#include <algorithm>

#include "common/logging.h"

namespace xssd::db {

LogManager::LogManager(sim::Simulator* sim, LogBackend* backend,
                       LogManagerConfig config)
    : sim_(sim), backend_(backend), config_(config) {}

void LogManager::WaitForSpace(size_t len, std::function<void()> ready) {
  if (HasSpace(len) && space_waiters_.empty()) {
    ready();
    return;
  }
  space_waiters_.push_back(SpaceWaiter{len, std::move(ready)});
}

uint8_t* LogManager::Reserve(size_t len) {
  if (PendingBytes() == 0 && len > 0) oldest_pending_since_ = sim_->Now();
  size_t at = buffer_.size();
  buffer_.resize(at + len);
  return buffer_.data() + at;
}

uint64_t LogManager::Publish(size_t len) {
  next_lsn_ += len;
  buffered_bytes_ += len;
  MaybeFlush();
  return next_lsn_;
}

size_t LogManager::PendingBytes() const { return buffer_.size() - head_; }

void LogManager::Compact() {
  if (head_ > (1u << 20) && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + head_);
    head_ = 0;
  }
}

void LogManager::WaitDurable(uint64_t lsn,
                             std::function<void(Status)> committed) {
  if (durable_lsn_ >= lsn) {
    committed(Status::OK());
    return;
  }
  if (!failure_.ok()) {
    committed(failure_);
    return;
  }
  // Appends are monotone, so waiters arrive in (non-strict) LSN order.
  XSSD_CHECK(waiters_.empty() || waiters_.back().lsn <= lsn);
  waiters_.push_back(Waiter{lsn, std::move(committed)});
  MaybeFlush();
}

void LogManager::MaybeFlush() {
  if (flushing_) return;
  if (PendingBytes() >= config_.group_bytes) {
    FlushGroup(std::min<size_t>(PendingBytes(), config_.max_flush_bytes));
    return;
  }
  if (PendingBytes() > 0 &&
      sim_->Now() - oldest_pending_since_ >= config_.flush_timeout) {
    FlushGroup(PendingBytes());
    return;
  }
  if (PendingBytes() > 0) ArmTimer();
}

void LogManager::ArmTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  sim::SimTime fire_at = oldest_pending_since_ + config_.flush_timeout;
  sim::SimTime delay = fire_at > sim_->Now() ? fire_at - sim_->Now() : 0;
  sim_->Schedule(delay, [this]() {
    timer_armed_ = false;
    MaybeFlush();
  });
}

void LogManager::FlushGroup(size_t len) {
  XSSD_CHECK(!flushing_);
  XSSD_CHECK(len <= PendingBytes());
  flushing_ = true;
  ++flushes_issued_;
  std::vector<uint8_t> group(buffer_.begin() + head_,
                             buffer_.begin() + head_ + len);
  head_ += len;
  Compact();
  if (PendingBytes() > 0) oldest_pending_since_ = sim_->Now();

  backend_->AppendDurable(
      group.data(), group.size(),
      [this, len](Status status) {
        flushing_ = false;
        if (!status.ok()) {
          XSSD_LOG(kError) << "log flush failed: " << status.ToString();
          if (failure_.ok()) failure_ = status;
        }
        // After a failed flush the log has a hole that recovery stops at:
        // nothing past it becomes durable, but later groups still drain so
        // that stalled appenders run on.
        if (failure_.ok()) durable_lsn_ += len;
        buffered_bytes_ -= len;
        ResolveWaiters();
        // Release stalled appenders, oldest first.
        while (!space_waiters_.empty() &&
               HasSpace(space_waiters_.front().len)) {
          auto ready = std::move(space_waiters_.front().ready);
          space_waiters_.pop_front();
          ready();
        }
        MaybeFlush();
      });
}

void LogManager::ResolveWaiters() {
  // Until a flush fails this resolves the durable waiters with OK; after
  // that no queued waiter can become durable, and each gets the error.
  while (!waiters_.empty() &&
         (waiters_.front().lsn <= durable_lsn_ || !failure_.ok())) {
    auto committed = std::move(waiters_.front().committed);
    waiters_.pop_front();
    committed(failure_);
  }
}

}  // namespace xssd::db
