#ifndef XSSD_OBS_CRITICAL_PATH_H_
#define XSSD_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/histogram.h"

namespace xssd::obs {

/// One exclusive slice of a request's lifetime. `stage == kRequest` marks
/// time not covered by any child span — attributed to "request.self"
/// (client-side compute, scheduling gaps between polls, ...).
struct PathSegment {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  Stage stage = Stage::kRequest;
  uint16_t node = 0;
};

/// Critical-path attribution for one completed request.
struct RequestBreakdown {
  SpanId root = 0;
  const char* kind = "";
  uint16_t node = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::vector<PathSegment> segments;
  /// Conservation invariant: segment durations sum exactly to end - start.
  /// True by construction of the sweep; verified honestly per request.
  bool conserved = true;
};

/// \brief Walks a SpanRecorder's store and attributes each completed
/// request's end-to-end latency to exclusive per-stage segments.
///
/// For each closed root span the analyzer gathers candidate work spans
/// that either belong to the same trace or carry a log-stream offset range
/// overlapping the root's (which re-attaches orphan spans: destage pages
/// cut by the latency timer, replication waits closed by a later shadow
/// update). Candidates are clamped to the request window and swept over
/// the boundary points; each elementary interval is charged to the deepest
/// overlapping stage (StageDepth, ties broken by stage then node then span
/// id — fully deterministic). Uncovered intervals become "request.self".
/// Because the segments partition the integer-nanosecond window, the
/// attributed durations sum *exactly* to the end-to-end latency.
class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(const SpanRecorder* recorder)
      : recorder_(recorder) {}

  /// Breakdowns for every closed root span, in root-span-id order.
  std::vector<RequestBreakdown> Analyze() const;

 private:
  const SpanRecorder* recorder_;
};

/// \brief Aggregates request breakdowns into per-stage histograms and
/// emits the deterministic breakdown JSON.
///
/// Layout (all maps are sorted, all numbers deterministic):
/// {
///   "bench": "<name>",
///   "runs": {
///     "<label>": {
///       "requests": N, "spans": M, "conservation_violations": 0,
///       "kinds": {
///         "append": {
///           "count": n,
///           "e2e": {stat},
///           "stages": {"<node>/<stage>": {stat}, ...}
///         }, ...
///       }
///     }, ...
///   }
/// }
/// where {stat} is a sim::DurationStat (exact count/total/min/max,
/// log2-bucket p50/p99/p999, non-empty buckets). Per request, each stage's
/// value is the *sum* of that stage's exclusive segments.
class BreakdownReporter {
 public:
  explicit BreakdownReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Analyze one run's recorder and fold it in under `label`.
  void AddRun(const std::string& label, const SpanRecorder& recorder);

  uint64_t request_count() const;
  uint64_t conservation_violations() const;

  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

  /// Mirror the per-stage totals into gauges
  /// (`<prefix>breakdown.<kind>.<node>.<stage>.total_us` plus per-kind
  /// `count`/`e2e.p50_us`/`e2e.p99_us`) so campaign metrics JSON carries a
  /// breakdown block per scenario. '/' in stage keys becomes '.'.
  void ExportGauges(MetricsRegistry* registry,
                    const std::string& prefix) const;

 private:
  struct KindAgg {
    uint64_t count = 0;
    sim::DurationStat e2e;
    std::map<std::string, sim::DurationStat> stages;
  };
  struct RunAgg {
    uint64_t requests = 0;
    uint64_t spans = 0;
    uint64_t violations = 0;
    std::map<std::string, KindAgg> kinds;
  };

  std::string bench_name_;
  std::map<std::string, RunAgg> runs_;
};

/// Dump every closed span of a recorder into a Chrome trace as complete
/// events with flow arrows keyed by span id (cat "span"). Call after
/// writer->BeginProcess(label) so the spans land in their own group.
void EmitSpansToTrace(const SpanRecorder& recorder, ChromeTraceWriter* writer);

}  // namespace xssd::obs

#endif  // XSSD_OBS_CRITICAL_PATH_H_
