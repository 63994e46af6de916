#include "sim/simulator.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/trace.h"

namespace xssd::sim {

Simulator::~Simulator() {
  if (time_obs_ != nullptr) {
    // Benches run one stack-local simulator per run; tearing it down is the
    // natural "run over" signal for an attached sampler (it closes its
    // final partial window there).
    time_obs_->OnSimulatorTearDown(now_);
    time_obs_ = nullptr;
  }
  wheel_.ReleaseAll(&pool_);
}

Simulator::SchedulerBackend Simulator::DefaultBackend() {
  static const SchedulerBackend cached = [] {
    const char* env = std::getenv("XSSD_SIM_SCHEDULER");
    if (env == nullptr || env[0] == '\0' || std::strcmp(env, "wheel") == 0) {
      return SchedulerBackend::kWheel;
    }
    if (std::strcmp(env, "heap") == 0) return SchedulerBackend::kHeap;
    // A run that silently fell back to the wheel would make a backend
    // comparison compare the wheel with itself.
    XSSD_LOG(kError) << "unknown XSSD_SIM_SCHEDULER=" << env
                     << " (want wheel or heap)";
    std::exit(2);
  }();
  return cached;
}

SimTime Simulator::ClampPast() {
  ++past_clamps_;
  // A past timestamp is a latent ordering bug in the calling model
  // (e.g. a fault plan firing "before" the event that armed it): loud
  // in debug builds, clamped-and-counted in release so long campaigns
  // keep running and the gauge surfaces it.
  assert(allow_past_schedules_ &&
         "Simulator::ScheduleAt: `when` is in the past (clamped to Now)");
  return now_;
}

void Simulator::EnqueueWheel(EventPool::Node* n) {
  if (trace_) trace_->OnEventScheduled(now_, n->when, n->seq);
  wheel_.Insert(n);
}

void Simulator::EnqueueHeap(HeapEvent&& ev) {
  if (trace_) trace_->OnEventScheduled(now_, ev.when, ev.seq);
  heap_.push(std::move(ev));
}

bool Simulator::StepBounded(SimTime bound) {
  if (UsesWheel()) {
    EventPool::Node* n = wheel_.PopNext(bound);
    if (n == nullptr) return false;
    if (n->when >= obs_due_) NotifyTimeObserver(n->when);
    now_ = n->when;
    ++executed_;
    if (trace_) trace_->OnEventBegin(n->when, n->seq);
    n->fn();
    if (trace_) trace_->OnEventEnd(n->when, n->seq);
    pool_.Release(n);
    return true;
  }
  if (heap_.empty() || heap_.top().when > bound) return false;
  // The event is moved out before running so a callback can safely schedule
  // new events (which may reallocate the underlying heap).
  HeapEvent ev = std::move(const_cast<HeapEvent&>(heap_.top()));
  heap_.pop();
  if (ev.when >= obs_due_) NotifyTimeObserver(ev.when);
  now_ = ev.when;
  ++executed_;
  if (trace_) trace_->OnEventBegin(ev.when, ev.seq);
  ev.fn();
  if (trace_) trace_->OnEventEnd(ev.when, ev.seq);
  return true;
}

// ── Run loops ───────────────────────────────────────────────────────────

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && StepBounded(~SimTime{0})) {
  }
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  uint64_t ran = 0;
  while (!stopped_ && StepBounded(deadline)) {
    ++ran;
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    wheel_.AdvanceTo(deadline);
  }
  return ran;
}

bool Simulator::RunWhile(const std::function<bool()>& done) {
  stopped_ = false;
  while (!done()) {
    if (stopped_) return false;
    if (!StepBounded(~SimTime{0})) return false;
  }
  return true;
}

}  // namespace xssd::sim
