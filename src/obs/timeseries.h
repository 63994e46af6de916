#ifndef XSSD_OBS_TIMESERIES_H_
#define XSSD_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {

class ChromeTraceWriter;
class SloWatchdog;

struct TimeSeriesOptions {
  /// Sampling window length in virtual time.
  sim::SimTime interval = sim::Ms(1);
  /// Per-series ring bound: oldest windows are evicted beyond this, so a
  /// runaway campaign cannot grow the series without bound.
  size_t max_windows = 4096;
};

/// \brief Virtual-time metric sampler: per-window time series over every
/// metric in a MetricsRegistry.
///
/// Attached to a simulator as a sim::TimeObserver — NOT as a scheduled
/// event. The simulator calls OnTimeAdvance() just before executing the
/// first event at or past each window boundary; the sampler closes every
/// window the jump covers and returns the next boundary. It therefore
/// adds no events, never advances the clock, and draws no randomness:
/// a sampled run executes the exact same event sequence as an unsampled
/// one, which is what lets CI require all non-obs.* metrics to be
/// byte-identical with the sampler on vs off.
///
/// Per closed window, every registered metric yields one point:
///  - counters: the per-window delta. A mid-run MetricsRegistry::Reset()
///    (current < previous) charges the post-reset value, so deltas never
///    go negative.
///  - gauges: the value at the window boundary (the state as of the last
///    event before it — gauges cannot change during event-free gaps).
///  - latency recorders: windowed count/min/max/mean/p50/p99/p999 via
///    LatencyRecorder window tracking (enabled on first sight).
/// Metrics registered mid-run join at the then-current window index
/// (`first_window` in the export). Series are bounded rings; evictions are
/// counted per series. The export (AppendJson) is deterministic: sorted
/// names, virtual timestamps, round-trip number formatting.
///
/// With a ChromeTraceWriter attached (set_trace), each closed window also
/// emits "ph":"C" counter-track events, so GC-reserve sawtooths and credit
/// levels render in Perfetto next to the existing span tracks. With an
/// SloWatchdog attached, rules are evaluated at each window close.
class TimeSeriesSampler : public sim::TimeObserver {
 public:
  using LatencyWindow = sim::LatencyRecorder::WindowStats;

  struct ValueSeries {
    size_t first_window = 0;  ///< window index of values.front()
    uint64_t evicted = 0;
    uint64_t last_raw = 0;  ///< counters: previous cumulative value
    std::deque<double> values;
  };
  struct LatencySeries {
    size_t first_window = 0;
    uint64_t evicted = 0;
    std::deque<LatencyWindow> windows;
  };

  TimeSeriesSampler(sim::Simulator* sim, MetricsRegistry* registry,
                    TimeSeriesOptions options = {});
  ~TimeSeriesSampler() override;

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Begin sampling at the simulator's current time: snapshot counter
  /// bases (pre-attach history is not charged to window 0), enable latency
  /// window tracking, attach as the simulator's time observer.
  void Start();

  /// Close any still-open windows up to the simulator's current (or final)
  /// time — including a trailing partial window — and detach. Idempotent;
  /// called automatically when the simulator is destroyed first.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Emit counter tracks into `trace` at each window close (not attached
  /// as a simulator trace sink — the writer may also be one, separately).
  void set_trace(ChromeTraceWriter* trace) { trace_ = trace; }
  /// Evaluate `watchdog` at each window close.
  void set_watchdog(SloWatchdog* watchdog) { watchdog_ = watchdog; }
  SloWatchdog* watchdog() const { return watchdog_; }

  // sim::TimeObserver
  sim::SimTime OnTimeAdvance(sim::SimTime when) override;
  void OnSimulatorTearDown(sim::SimTime last_now) override;

  size_t windows() const { return windows_; }
  /// Virtual end of the last closed window (== the sampler's start time
  /// before any window closes).
  sim::SimTime end_time() const { return end_; }
  const TimeSeriesOptions& options() const { return options_; }
  uint64_t evicted_values() const { return evicted_values_; }

  const std::map<std::string, ValueSeries>& counter_series() const {
    return counter_series_;
  }
  const std::map<std::string, ValueSeries>& gauge_series() const {
    return gauge_series_;
  }
  const std::map<std::string, LatencySeries>& latency_series() const {
    return latency_series_;
  }

  /// Value of `metric` in the most recently closed window, for the
  /// watchdog: counters yield their delta (stat "" or "delta"), gauges
  /// their value ("" or "value"), latency series the named stat (count,
  /// min, max, mean, p50, p99, p999). False when the metric has no series
  /// yet or the stat name is unknown.
  bool LastValue(const std::string& metric, const std::string& stat,
                 double* out) const;

  /// Deterministic JSON object: interval/start/end/window count plus one
  /// entry per series (sorted by name). Includes the watchdog's rule state
  /// when one is attached.
  void AppendJson(std::string* out) const;

 private:
  void CloseWindow(sim::SimTime window_end);
  void PushValue(ValueSeries* s, double v);

  sim::Simulator* sim_;
  MetricsRegistry* registry_;
  TimeSeriesOptions options_;
  ChromeTraceWriter* trace_ = nullptr;
  SloWatchdog* watchdog_ = nullptr;

  bool started_ = false;
  bool attached_ = false;
  bool finalized_ = false;
  sim::SimTime start_ = 0;
  sim::SimTime end_ = 0;
  sim::SimTime next_due_ = 0;
  sim::SimTime teardown_now_ = 0;
  size_t windows_ = 0;
  uint64_t evicted_values_ = 0;

  std::map<std::string, ValueSeries> counter_series_;
  std::map<std::string, ValueSeries> gauge_series_;
  std::map<std::string, LatencySeries> latency_series_;

  Counter* m_windows_ = nullptr;  ///< obs.timeseries.windows
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_TIMESERIES_H_
