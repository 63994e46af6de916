#ifndef XSSD_OBS_JSON_H_
#define XSSD_OBS_JSON_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace xssd::obs {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string JsonEscape(std::string_view s);

/// Render a double as a JSON number: integral values print without a
/// fraction, everything else with enough digits to round-trip. NaN/inf
/// (not representable in JSON) degrade to 0.
std::string JsonNumber(double value);

/// \brief Minimal JSON DOM for small config inputs (fault plans, tooling).
///
/// Deliberately tiny: values are held by value, object fields keep their
/// source order, and numbers are doubles (the inputs this serves are
/// microsecond offsets and probabilities, well inside double range).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;                           ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< kObject

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parse one JSON document (must consume the whole input) with strict
/// RFC 8259 syntax and bounded nesting depth. A failed parse's status reads
/// "invalid JSON at byte N: reason".
Result<JsonValue> ParseJson(std::string_view text);

/// \brief Snapshots a MetricsRegistry to machine-readable JSON.
///
/// Layout (keys sorted, so identical runs produce identical bytes):
/// {
///   "counters":  {"cmb.append_bytes": 123, ...},
///   "gauges":    {"cmb.staging_occupancy": 0, ...},
///   "latencies": {"nvme.cmd_latency_us": {"count": 9, "min": ..,
///                 "mean": .., "p50": .., "p90": .., "p99": .., "max": ..}}
/// }
class JsonExporter {
 public:
  explicit JsonExporter(const MetricsRegistry* registry)
      : registry_(registry) {}

  void Write(std::ostream& out) const;
  std::string ToString() const;
  Status WriteFile(const std::string& path) const;

 private:
  const MetricsRegistry* registry_;
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_JSON_H_
