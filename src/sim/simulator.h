#ifndef XSSD_SIM_SIMULATOR_H_
#define XSSD_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_pool.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace xssd::obs {
class TraceSink;
}  // namespace xssd::obs

namespace xssd::sim {

/// \brief Passive observer of virtual-time advancement (the time-series
/// sampler in obs/timeseries.h).
///
/// Attached via Simulator::set_time_observer() with a first due time. The
/// simulator calls OnTimeAdvance(when) immediately *before* executing any
/// event whose timestamp is >= the current due time; the observer snapshots
/// whatever it watches and returns the next due time. Because the observer
/// never appears in the event queue, never advances the clock, and must not
/// schedule events or consume randomness, an observed run executes the
/// exact same event sequence as an unobserved one — zero perturbation by
/// construction (the obs CI gate relies on this).
class TimeObserver {
 public:
  virtual ~TimeObserver() = default;

  /// The next event to execute carries timestamp `when` (>= the due time
  /// this observer last returned). Returns the new due time; return
  /// ~SimTime{0} to stop being called.
  virtual SimTime OnTimeAdvance(SimTime when) = 0;

  /// The simulator is being destroyed (benches keep per-run stack-local
  /// simulators); `last_now` is its final virtual time. The observer must
  /// not touch the simulator again.
  virtual void OnSimulatorTearDown(SimTime last_now) { (void)last_now; }
};

/// \brief Discrete-event simulation core: a virtual clock plus an ordered
/// event queue.
///
/// Every hardware component in the library (PCIe links, flash dies, PM
/// controllers, NTB hops) is modeled as callbacks scheduled on one Simulator:
/// one clock and one queue, however many fabrics a model wires together.
/// Events at equal timestamps run in scheduling (FIFO) order, which makes
/// runs fully deterministic.
///
/// Two scheduler backends implement the same (when, seq) event order:
///  - kWheel (default): hierarchical timer wheel + pooled event nodes;
///    O(1) schedule/fire, allocation-free in steady state.
///  - kHeap: a binary heap of by-value events, kept as the reference
///    implementation the tests and gates diff the wheel against byte for
///    byte.
/// kParallel is an alias of kWheel and runs exactly the wheel code; the
/// enumerator stays only because perfbench still names it.
/// Select per-process with XSSD_SIM_SCHEDULER=wheel|heap (any other value
/// stops the process) or per-instance via the constructor.
class Simulator {
 public:
  /// Move-only callable with a 48-byte inline capture buffer; converts
  /// implicitly from lambdas, function pointers and std::function.
  using Callback = EventFn;

  enum class SchedulerBackend { kWheel, kHeap, kParallel };

  Simulator() : Simulator(DefaultBackend()) {}
  explicit Simulator(SchedulerBackend backend) : backend_(backend) {}
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Backend chosen by the XSSD_SIM_SCHEDULER environment variable: "wheel"
  /// (also when unset or empty) or "heap". Any other value logs an error
  /// naming both and exits the process with status 2.
  static SchedulerBackend DefaultBackend();

  SchedulerBackend backend() const { return backend_; }

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Does nothing: every model runs on the one clock and queue. It stays
  /// only because perfbench/replicated_appends.cc still calls it, and goes
  /// with that call.
  void ConfigureDomains(uint32_t) {}

  // ── Scheduling ────────────────────────────────────────────────────────

  /// Schedule `fn` to run `delay` nanoseconds from now.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` (any callable a Callback converts from, or a Callback)
  /// at an absolute virtual time. The callback is built in place in its
  /// event node, so a callable passed as a temporary is moved once, into
  /// the node, and never again.
  /// A `when` in the past is clamped to Now() — the event fires next, after
  /// already-queued events at the current timestamp — and counted in
  /// past_schedule_clamps() so fault-plan and workload authors can see the
  /// latent ordering bug. In debug builds the clamp aborts unless
  /// set_allow_past_schedules(true).
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    if (when < now_) when = ClampPast();
    const uint64_t seq = next_seq_++;
    if (UsesWheel()) {
      EnqueueWheel(pool_.Emplace(when, seq, std::forward<F>(fn)));
    } else {
      EnqueueHeap(HeapEvent{when, seq, std::forward<F>(fn)});
    }
  }

  // ── Running ───────────────────────────────────────────────────────────

  /// Run until the event queue drains (or Stop() is called).
  void Run();

  /// Run events with timestamp <= `deadline`; afterwards Now() == deadline
  /// (unless stopped earlier). Returns the number of events executed.
  uint64_t RunUntil(SimTime deadline);

  /// Convenience: RunUntil(Now() + duration).
  uint64_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  /// Drain events until `done` returns true (checked after each event) or
  /// the queue empties. Returns true if the predicate was satisfied.
  bool RunWhile(const std::function<bool()>& done);

  /// Abort Run/RunUntil/RunWhile after the current event returns.
  void Stop() { stopped_ = true; }

  // ── Introspection ─────────────────────────────────────────────────────

  bool empty() const { return pending_events() == 0; }

  size_t pending_events() const {
    return UsesWheel() ? wheel_.size() : heap_.size();
  }

  uint64_t executed_events() const { return executed_; }

  /// Number of ScheduleAt() calls whose `when` was in the past and got
  /// clamped to Now(). Campaign benches export this as a gauge.
  uint64_t past_schedule_clamps() const { return past_clamps_; }

  /// Permit past-timestamp scheduling (still clamped and counted) without
  /// the debug-build abort. Intended for tests that exercise the clamp.
  void set_allow_past_schedules(bool allow) { allow_past_schedules_ = allow; }

  /// Event-pool allocation stats (wheel backend; the heap backend does not
  /// pool). kernel_bench reports these as the allocs/event trajectory.
  const EventPool& event_pool() const { return pool_; }

  /// Attach an observability sink (nullptr detaches). The simulator calls
  /// it on every schedule/fire with virtual timestamps; see obs/trace.h.
  /// Not owned; must outlive the simulator or be detached first.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Attach a passive time observer (nullptr detaches): it is called back
  /// just before the first event at or beyond `first_due` executes, and
  /// thereafter per the due times it returns. Not owned; must outlive the
  /// simulator or detach first (the destructor calls OnSimulatorTearDown).
  /// Costs one predictable branch per event when detached.
  void set_time_observer(TimeObserver* obs, SimTime first_due) {
    time_obs_ = obs;
    obs_due_ = obs == nullptr ? ~SimTime{0} : first_due;
  }

 private:
  /// Heap-backend event: by-value storage, no pooling.
  struct HeapEvent {
    SimTime when;
    uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const HeapEvent& a, const HeapEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool UsesWheel() const { return backend_ != SchedulerBackend::kHeap; }

  /// ScheduleAt's out-of-line halves: the past-time clamp (counts it and
  /// returns Now()), and queueing a built event after the trace hook.
  SimTime ClampPast();
  void EnqueueWheel(EventPool::Node* n);
  void EnqueueHeap(HeapEvent&& ev);

  /// Pops and runs the earliest event if its timestamp is <= `bound`.
  /// Returns false (running nothing) otherwise.
  bool StepBounded(SimTime bound);

  /// Out-of-line slow path of the per-event observer check: `when` has
  /// reached the observer's due time.
  void NotifyTimeObserver(SimTime when) {
    // `when >= obs_due_` with no observer only happens for an event at
    // literally ~0 ns; keep that degenerate case from dereferencing null.
    if (time_obs_ == nullptr) return;
    obs_due_ = time_obs_->OnTimeAdvance(when);
  }

  SchedulerBackend backend_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t past_clamps_ = 0;
  bool stopped_ = false;
  bool allow_past_schedules_ = false;
  obs::TraceSink* trace_ = nullptr;
  TimeObserver* time_obs_ = nullptr;
  /// Next virtual time at which time_obs_ wants a callback; ~0 when no
  /// observer is attached, so the hot-path `when >= obs_due_` check is a
  /// single always-false branch in the common case.
  SimTime obs_due_ = ~SimTime{0};

  EventPool pool_;
  TimerWheel wheel_;
  std::priority_queue<HeapEvent, std::vector<HeapEvent>, Later> heap_;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_SIMULATOR_H_
