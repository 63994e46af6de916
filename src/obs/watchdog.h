#ifndef XSSD_OBS_WATCHDOG_H_
#define XSSD_OBS_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace xssd::obs {

class FlightRecorder;
class TimeSeriesSampler;

/// \brief One declarative SLO rule, evaluated against the last closed
/// sampling window: alert when `metric`'s `stat` satisfies `pred
/// threshold` for `for_windows` consecutive windows.
///
/// JSON form (see ParseSloRule):
///   {"name": "write_cliff", "metric": "ftl.write_amp", "pred": ">",
///    "threshold": 1.5, "for_windows": 3, "stat": "value", "fatal": false}
/// `stat` defaults by metric kind (counters: per-window delta; gauges:
/// value; latency series need an explicit count/min/max/mean/p50/p99/p999).
/// `for_windows` defaults to 1, `fatal` to false. A fatal rule's alert
/// makes BenchReporter::Finish() fail the campaign.
struct SloRule {
  enum class Pred { kGt, kGe, kLt, kLe };

  std::string name;
  std::string metric;
  std::string stat;  ///< "" = kind default
  Pred pred = Pred::kGt;
  double threshold = 0;
  uint32_t for_windows = 1;
  bool fatal = false;
};

const char* PredName(SloRule::Pred pred);

/// Parse one rule object / an array of rule objects. Unknown fields are
/// rejected, so a typo'd "for_window" cannot silently disable a gate.
Result<SloRule> ParseSloRule(const JsonValue& value);
Result<std::vector<SloRule>> ParseSloRules(std::string_view json_text);

/// \brief Declarative SLO watchdog, driven by a TimeSeriesSampler at each
/// window close.
///
/// Rules are streak-based: a window where the predicate holds extends the
/// rule's breach streak, one where it doesn't resets it; the alert fires
/// (edge-triggered, once per excursion) when the streak reaches
/// `for_windows`. Windows where the metric has no series yet (e.g. a
/// latency recorder before its first sample) leave the streak unchanged.
/// Alerts bump `obs.watchdog.*` counters — namespaced obs.* so the CI
/// zero-perturbation filter excludes them — and land in the flight
/// recorder when one is attached.
class SloWatchdog {
 public:
  SloWatchdog() = default;

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  void AddRule(SloRule rule);

  /// Register `obs.watchdog.alerts`, `obs.watchdog.fatal_alerts`, and one
  /// `obs.watchdog.rule.<name>.alerts` per rule; nullptr detaches.
  void SetMetrics(MetricsRegistry* registry);
  void set_flight_recorder(FlightRecorder* recorder) {
    flightrec_ = recorder;
  }

  /// Evaluate every rule against `sampler`'s last closed window (index
  /// `window_index`, ending at virtual time `window_end`).
  void OnWindow(const TimeSeriesSampler& sampler, size_t window_index,
                sim::SimTime window_end);

  struct RuleState {
    SloRule rule;
    uint32_t streak = 0;      ///< consecutive breaching windows
    bool alerting = false;    ///< streak has reached for_windows
    uint64_t alerts = 0;      ///< edge-triggered excursion count
    uint64_t breach_windows = 0;
    int64_t first_alert_window = -1;
    double last_value = 0;
    bool last_valid = false;
    Counter* m_alerts = nullptr;
  };
  const std::vector<RuleState>& rules() const { return rules_; }

  uint64_t alerts() const { return alerts_; }
  uint64_t fatal_alerts() const { return fatal_alerts_; }
  size_t windows_evaluated() const { return windows_evaluated_; }

  /// Total alerts of the rule named `name` (0 when absent).
  uint64_t AlertsFor(std::string_view name) const;

  /// Deterministic JSON object: per-rule spec + alert state, plus totals.
  void AppendJson(std::string* out) const;

 private:
  std::vector<RuleState> rules_;
  MetricsRegistry* registry_ = nullptr;
  FlightRecorder* flightrec_ = nullptr;
  Counter* m_alerts_ = nullptr;
  Counter* m_fatal_alerts_ = nullptr;
  uint64_t alerts_ = 0;
  uint64_t fatal_alerts_ = 0;
  size_t windows_evaluated_ = 0;
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_WATCHDOG_H_
