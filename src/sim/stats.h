#ifndef XSSD_SIM_STATS_H_
#define XSSD_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/histogram.h"
#include "sim/time.h"

namespace xssd::sim {

/// \brief Sample recorder for latency-style measurements.
///
/// Stores raw samples (nanoseconds or any unit) and answers min/max/mean and
/// exact arbitrary percentiles. Used by every benchmark harness; the
/// candlestick summaries of Figure 13 come straight out of Percentile().
class LatencyRecorder {
 public:
  void Add(double sample) {
    if (count_ == 0) {
      min_ = max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    sum_ += sample;
    ++count_;
    ++version_;
    if (windowed_) {
      if (win_count_ == 0) {
        win_min_ = win_max_ = sample;
      } else {
        win_min_ = std::min(win_min_, sample);
        win_max_ = std::max(win_max_, sample);
      }
      win_sum_ += sample;
      ++win_count_;
      win_hist_.Add(sample);
    }
    samples_.push_back(sample);
  }

  /// \brief One sampling window's view: everything Add()ed since the last
  /// TakeWindow() call. Percentiles carry the log2-bucket error bound
  /// (~3.2% relative), clamped to the window's exact [min, max].
  struct WindowStats {
    uint64_t count = 0;
    double min = 0;
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
  };

  /// Opt into per-window accumulation (the time-series sampler's view).
  /// Costs one branch per Add() plus a histogram insert while enabled.
  /// Never enabled implicitly.
  void EnableWindowTracking() { windowed_ = true; }
  bool window_tracking() const { return windowed_; }

  /// Snapshot-and-clear the current window. Requires EnableWindowTracking()
  /// first; an empty window returns all zeros.
  WindowStats TakeWindow() {
    WindowStats w;
    w.count = win_count_;
    if (win_count_ > 0) {
      w.min = win_min_;
      w.max = win_max_;
      w.mean = win_sum_ / static_cast<double>(win_count_);
      w.p50 = std::clamp(win_hist_.Percentile(50), win_min_, win_max_);
      w.p99 = std::clamp(win_hist_.Percentile(99), win_min_, win_max_);
      w.p999 = std::clamp(win_hist_.Percentile(99.9), win_min_, win_max_);
    }
    ClearWindow();
    return w;
  }

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  double Min() const { return empty() ? 0 : min_; }
  double Max() const { return empty() ? 0 : max_; }

  double Mean() const {
    if (empty()) return 0;
    return sum_ / static_cast<double>(count_);
  }

  /// Percentile, p in [0, 100]: exact, interpolated nearest-rank.
  double Percentile(double p) const {
    if (empty()) return 0;
    EnsureSorted();
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  /// Candlestick summary (min, p25, p50, p75, max) — Figure 13 rendering.
  struct Candle {
    double min, p25, p50, p75, max;
  };
  Candle Candlestick() const {
    return Candle{Min(), Percentile(25), Percentile(50), Percentile(75),
                  Max()};
  }

  void Clear() {
    samples_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    ClearWindow();  // window tracking stays enabled across Clear()
    ++version_;
  }

 private:
  /// The sort cache is keyed by a mutation version rather than a boolean:
  /// every mutation unconditionally bumps `version_`, so an interleaving of
  /// Add()/Clear() with Percentile() can never leave the cache marked clean
  /// while the samples have changed (the failure mode of the old
  /// set-and-forget `sorted_` flag).
  void EnsureSorted() const {
    if (sorted_version_ != version_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_version_ = version_;
    }
  }

  void ClearWindow() {
    win_hist_.Clear();
    win_count_ = 0;
    win_sum_ = 0;
    win_min_ = 0;
    win_max_ = 0;
  }

  mutable std::vector<double> samples_;
  uint64_t version_ = 0;
  mutable uint64_t sorted_version_ = 0;

  bool windowed_ = false;
  Log2Histogram win_hist_;
  uint64_t win_count_ = 0;
  double win_sum_ = 0;
  double win_min_ = 0;
  double win_max_ = 0;

  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// \brief Event counter with rate helper.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

  /// Events (or bytes) per second over a virtual-time interval.
  double RatePerSec(SimTime interval) const {
    if (interval == 0) return 0;
    return static_cast<double>(value_) / ToSec(interval);
  }

 private:
  uint64_t value_ = 0;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_STATS_H_
