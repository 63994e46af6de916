#ifndef XSSD_OBS_HISTOGRAM_H_
#define XSSD_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "sim/histogram.h"

namespace xssd::obs {

/// \brief Duration aggregate: exact count/total/min/max plus log2 buckets
/// for percentiles. One per (request kind, stage key) in the breakdown.
struct DurationStat {
  sim::Log2Histogram hist;
  uint64_t count = 0;
  double total = 0;
  double min = 0;
  double max = 0;

  void Add(double value) {
    if (count == 0) {
      min = max = value;
    } else {
      if (value < min) min = value;
      if (value > max) max = value;
    }
    total += value;
    ++count;
    hist.Add(value);
  }

  double Mean() const {
    return count == 0 ? 0 : total / static_cast<double>(count);
  }

  /// Bucket-interpolated percentile, guarded against an empty histogram
  /// and clamped to the exact [min, max] (bucket interpolation can
  /// otherwise land above the largest recorded sample).
  double PercentileClamped(double p) const {
    if (count == 0) return 0;
    double v = hist.Percentile(p);
    return v < min ? min : (v > max ? max : v);
  }

  /// Deterministic JSON object: exact aggregates, bucket-interpolated
  /// percentiles, and the non-empty buckets as [lo, hi, count] triples.
  void AppendJson(std::string* out) const {
    *out += "{\"count\": " + std::to_string(count);
    *out += ", \"total_ns\": " + JsonNumber(total);
    *out += ", \"min_ns\": " + JsonNumber(min);
    *out += ", \"max_ns\": " + JsonNumber(max);
    *out += ", \"mean_ns\": " + JsonNumber(Mean());
    *out += ", \"p50_ns\": " + JsonNumber(PercentileClamped(50));
    *out += ", \"p99_ns\": " + JsonNumber(PercentileClamped(99));
    *out += ", \"p999_ns\": " + JsonNumber(PercentileClamped(99.9));
    *out += ", \"buckets\": [";
    bool first = true;
    for (const sim::Log2Histogram::Bucket& b : hist.NonEmptyBuckets()) {
      if (!first) *out += ", ";
      first = false;
      *out += "[" + std::to_string(b.lo) + ", " + std::to_string(b.hi) +
              ", " + std::to_string(b.count) + "]";
    }
    *out += "]}";
  }
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_HISTOGRAM_H_
