#include "obs/watchdog.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "obs/flightrec.h"
#include "obs/timeseries.h"

namespace xssd::obs {

const char* PredName(SloRule::Pred pred) {
  switch (pred) {
    case SloRule::Pred::kGt:
      return ">";
    case SloRule::Pred::kGe:
      return ">=";
    case SloRule::Pred::kLt:
      return "<";
    case SloRule::Pred::kLe:
      return "<=";
  }
  return "?";
}

namespace {

bool Holds(SloRule::Pred pred, double value, double threshold) {
  switch (pred) {
    case SloRule::Pred::kGt:
      return value > threshold;
    case SloRule::Pred::kGe:
      return value >= threshold;
    case SloRule::Pred::kLt:
      return value < threshold;
    case SloRule::Pred::kLe:
      return value <= threshold;
  }
  return false;
}

/// Metric-name characters only, so a rule name can serve as a metric-name
/// segment (obs.watchdog.rule.<name>.alerts).
std::string SanitizeRuleName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "rule";
  return out;
}

}  // namespace

Result<SloRule> ParseSloRule(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("slo rule must be an object");
  }
  SloRule rule;
  bool have_metric = false;
  for (const auto& [key, field] : value.fields) {
    if (key == "name") {
      if (!field.is_string()) {
        return Status::InvalidArgument("slo rule: name must be a string");
      }
      rule.name = field.string;
    } else if (key == "metric") {
      if (!field.is_string() || field.string.empty()) {
        return Status::InvalidArgument(
            "slo rule: metric must be a non-empty string");
      }
      rule.metric = field.string;
      have_metric = true;
    } else if (key == "stat") {
      if (!field.is_string()) {
        return Status::InvalidArgument("slo rule: stat must be a string");
      }
      rule.stat = field.string;
    } else if (key == "pred") {
      if (!field.is_string()) {
        return Status::InvalidArgument("slo rule: pred must be a string");
      }
      if (field.string == ">") {
        rule.pred = SloRule::Pred::kGt;
      } else if (field.string == ">=") {
        rule.pred = SloRule::Pred::kGe;
      } else if (field.string == "<") {
        rule.pred = SloRule::Pred::kLt;
      } else if (field.string == "<=") {
        rule.pred = SloRule::Pred::kLe;
      } else {
        return Status::InvalidArgument("slo rule: pred must be one of > >= < <= (got \"" +
                                       field.string + "\")");
      }
    } else if (key == "threshold") {
      if (!field.is_number()) {
        return Status::InvalidArgument(
            "slo rule: threshold must be a number");
      }
      rule.threshold = field.number;
    } else if (key == "for_windows") {
      if (!field.is_number() || field.number < 1 || field.number > UINT32_MAX ||
          field.number != std::floor(field.number)) {
        return Status::InvalidArgument(
            "slo rule: for_windows must be an integer in [1, 2^32)");
      }
      rule.for_windows = static_cast<uint32_t>(field.number);
    } else if (key == "fatal") {
      if (!field.is_bool()) {
        return Status::InvalidArgument("slo rule: fatal must be a bool");
      }
      rule.fatal = field.boolean;
    } else {
      // Reject unknown keys loudly: a typo'd "for_window" would otherwise
      // silently weaken a gate.
      return Status::InvalidArgument("slo rule: unknown field \"" + key +
                                     "\"");
    }
  }
  if (!have_metric) {
    return Status::InvalidArgument("slo rule: missing \"metric\"");
  }
  if (rule.name.empty()) rule.name = rule.metric;
  rule.name = SanitizeRuleName(rule.name);
  return rule;
}

Result<std::vector<SloRule>> ParseSloRules(std::string_view json_text) {
  Result<JsonValue> doc = ParseJson(json_text);
  if (!doc.ok()) return doc.status();
  std::vector<SloRule> rules;
  if (doc->is_object()) {
    Result<SloRule> rule = ParseSloRule(*doc);
    if (!rule.ok()) return rule.status();
    rules.push_back(std::move(*rule));
    return rules;
  }
  if (!doc->is_array()) {
    return Status::InvalidArgument(
        "slo rules: want an array of rule objects");
  }
  for (const JsonValue& item : doc->items) {
    Result<SloRule> rule = ParseSloRule(item);
    if (!rule.ok()) return rule.status();
    rules.push_back(std::move(*rule));
  }
  return rules;
}

void SloWatchdog::AddRule(SloRule rule) {
  RuleState state;
  state.rule = std::move(rule);
  if (registry_ != nullptr) {
    state.m_alerts = registry_->GetCounter("obs.watchdog.rule." +
                                           state.rule.name + ".alerts");
  }
  rules_.push_back(std::move(state));
}

void SloWatchdog::SetMetrics(MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    m_alerts_ = m_fatal_alerts_ = nullptr;
    for (RuleState& state : rules_) state.m_alerts = nullptr;
    return;
  }
  m_alerts_ = registry->GetCounter("obs.watchdog.alerts");
  m_fatal_alerts_ = registry->GetCounter("obs.watchdog.fatal_alerts");
  for (RuleState& state : rules_) {
    state.m_alerts =
        registry->GetCounter("obs.watchdog.rule." + state.rule.name + ".alerts");
  }
}

void SloWatchdog::OnWindow(const TimeSeriesSampler& sampler,
                           size_t window_index, sim::SimTime window_end) {
  ++windows_evaluated_;
  for (RuleState& state : rules_) {
    double value = 0;
    if (!sampler.LastValue(state.rule.metric, state.rule.stat, &value)) {
      state.last_valid = false;
      continue;  // no series yet: the streak neither grows nor resets
    }
    state.last_value = value;
    state.last_valid = true;
    if (!Holds(state.rule.pred, value, state.rule.threshold)) {
      state.streak = 0;
      state.alerting = false;
      continue;
    }
    ++state.breach_windows;
    if (state.streak < state.rule.for_windows) ++state.streak;
    if (state.streak < state.rule.for_windows || state.alerting) continue;
    // Edge-triggered: one alert per excursion, however long it lasts.
    state.alerting = true;
    ++state.alerts;
    ++alerts_;
    if (state.rule.fatal) ++fatal_alerts_;
    if (state.m_alerts != nullptr) state.m_alerts->Add();
    if (m_alerts_ != nullptr) m_alerts_->Add();
    if (state.rule.fatal && m_fatal_alerts_ != nullptr) {
      m_fatal_alerts_->Add();
    }
    if (state.first_alert_window < 0) {
      state.first_alert_window = static_cast<int64_t>(window_index);
    }
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "rule %s: %s%s%s %s %g for %u windows (value %g)%s",
                  state.rule.name.c_str(), state.rule.metric.c_str(),
                  state.rule.stat.empty() ? "" : ".",
                  state.rule.stat.c_str(), PredName(state.rule.pred),
                  state.rule.threshold, state.rule.for_windows, value,
                  state.rule.fatal ? " [fatal]" : "");
    std::fprintf(stderr, "slo-watchdog: alert at t=%llu ns: %s\n",
                 static_cast<unsigned long long>(window_end), msg);
    if (flightrec_ != nullptr) {
      flightrec_->Record(window_end, "watchdog", msg);
    }
  }
}

uint64_t SloWatchdog::AlertsFor(std::string_view name) const {
  uint64_t total = 0;
  for (const RuleState& state : rules_) {
    if (state.rule.name == name) total += state.alerts;
  }
  return total;
}

void SloWatchdog::AppendJson(std::string* out) const {
  *out += "{\"windows_evaluated\": " + std::to_string(windows_evaluated_);
  *out += ", \"alerts\": " + std::to_string(alerts_);
  *out += ", \"fatal_alerts\": " + std::to_string(fatal_alerts_);
  *out += ", \"rules\": [";
  bool first = true;
  for (const RuleState& state : rules_) {
    if (!first) *out += ", ";
    first = false;
    *out += "{\"name\": \"" + JsonEscape(state.rule.name) + "\"";
    *out += ", \"metric\": \"" + JsonEscape(state.rule.metric) + "\"";
    *out += ", \"stat\": \"" + JsonEscape(state.rule.stat) + "\"";
    *out += ", \"pred\": \"" + std::string(PredName(state.rule.pred)) + "\"";
    *out += ", \"threshold\": " + JsonNumber(state.rule.threshold);
    *out += ", \"for_windows\": " + std::to_string(state.rule.for_windows);
    *out += std::string(", \"fatal\": ") + (state.rule.fatal ? "true" : "false");
    *out += ", \"alerts\": " + std::to_string(state.alerts);
    *out += ", \"breach_windows\": " + std::to_string(state.breach_windows);
    *out += ", \"first_alert_window\": " +
            std::to_string(state.first_alert_window);
    *out += ", \"last_value\": " + JsonNumber(state.last_value);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace xssd::obs
