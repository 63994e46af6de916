#include "obs/critical_path.h"

#include <algorithm>
#include <fstream>

#include "obs/json.h"

namespace xssd::obs {

namespace {

/// A candidate span clamped to the request window.
struct Clamped {
  sim::SimTime begin;
  sim::SimTime end;
  Stage stage;
  uint16_t node;
  SpanId id;
};

/// Deterministic JSON object of `stat`: exact aggregates, bucket-
/// interpolated percentiles, and the non-empty buckets as [lo, hi, count]
/// triples.
void AppendJson(const sim::DurationStat& stat, std::string* out) {
  *out += "{\"count\": " + std::to_string(stat.count);
  *out += ", \"total_ns\": " + JsonNumber(stat.total);
  *out += ", \"min_ns\": " + JsonNumber(stat.min);
  *out += ", \"max_ns\": " + JsonNumber(stat.max);
  *out += ", \"mean_ns\": " + JsonNumber(stat.Mean());
  *out += ", \"p50_ns\": " + JsonNumber(stat.PercentileClamped(50));
  *out += ", \"p99_ns\": " + JsonNumber(stat.PercentileClamped(99));
  *out += ", \"p999_ns\": " + JsonNumber(stat.PercentileClamped(99.9));
  *out += ", \"buckets\": [";
  bool first = true;
  for (const sim::Log2Histogram::Bucket& b : stat.hist.NonEmptyBuckets()) {
    if (!first) *out += ", ";
    first = false;
    *out += "[" + std::to_string(b.lo) + ", " + std::to_string(b.hi) + ", " +
            std::to_string(b.count) + "]";
  }
  *out += "]}";
}

/// Deterministic winner among spans covering the same instant: deepest
/// stage first, then lowest stage enum, node, span id.
bool Wins(const Clamped& a, const Clamped& b) {
  int da = StageDepth(a.stage), db = StageDepth(b.stage);
  if (da != db) return da > db;
  if (a.stage != b.stage) return a.stage < b.stage;
  if (a.node != b.node) return a.node < b.node;
  return a.id < b.id;
}

bool OffsetsOverlap(const Span& a, const Span& b) {
  return a.offset_end > a.offset_begin && b.offset_end > b.offset_begin &&
         a.offset_begin < b.offset_end && b.offset_begin < a.offset_end;
}

RequestBreakdown AnalyzeRoot(const Span& root,
                             const std::vector<const Span*>& candidates) {
  RequestBreakdown b;
  b.root = root.id;
  b.kind = root.name;
  b.node = root.node;
  b.start = root.start;
  b.end = root.end;
  if (root.end <= root.start) return b;

  std::vector<Clamped> work;
  for (const Span* s : candidates) {
    if (s->start >= root.end || s->end <= root.start) continue;
    if (s->trace_id != root.trace_id && !OffsetsOverlap(*s, root)) continue;
    work.push_back(Clamped{std::max(s->start, root.start),
                           std::min(s->end, root.end), s->stage, s->node,
                           s->id});
  }

  std::vector<sim::SimTime> bounds;
  bounds.reserve(2 * work.size() + 2);
  bounds.push_back(root.start);
  bounds.push_back(root.end);
  for (const Clamped& c : work) {
    bounds.push_back(c.begin);
    bounds.push_back(c.end);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Sweep the elementary intervals, maintaining the set of spans live at
  // the current interval. Sorting by begin lets us admit spans with a
  // moving pointer; expiry is checked during the winner scan.
  std::sort(work.begin(), work.end(),
            [](const Clamped& a, const Clamped& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.id < b.id;
            });
  std::vector<const Clamped*> live;
  size_t next = 0;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    sim::SimTime t0 = bounds[i], t1 = bounds[i + 1];
    while (next < work.size() && work[next].begin <= t0) {
      live.push_back(&work[next++]);
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](const Clamped* c) { return c->end <= t0; }),
               live.end());
    const Clamped* best = nullptr;
    for (const Clamped* c : live) {
      if (!best || Wins(*c, *best)) best = c;
    }
    Stage stage = best ? best->stage : Stage::kRequest;
    uint16_t node = best ? best->node : root.node;
    if (!b.segments.empty() && b.segments.back().stage == stage &&
        b.segments.back().node == node && b.segments.back().end == t0) {
      b.segments.back().end = t1;
    } else {
      b.segments.push_back(PathSegment{t0, t1, stage, node});
    }
  }

  sim::SimTime attributed = 0;
  for (const PathSegment& seg : b.segments) attributed += seg.end - seg.begin;
  b.conserved = attributed == root.end - root.start;
  return b;
}

}  // namespace

std::vector<RequestBreakdown> CriticalPathAnalyzer::Analyze() const {
  const std::vector<Span>& spans = recorder_->spans();
  std::vector<const Span*> roots;
  std::vector<const Span*> work;  // closed, positive-duration child spans
  for (const Span& s : spans) {
    if (!s.closed) continue;
    if (s.stage == Stage::kRequest) {
      roots.push_back(&s);
    } else if (s.end > s.start) {
      work.push_back(&s);
    }
  }
  // Span ids are assigned at start time, so both lists are already in
  // non-decreasing start order; a two-pointer sweep keeps only the spans
  // overlapping the current root window in `active`.
  std::vector<RequestBreakdown> out;
  out.reserve(roots.size());
  std::vector<const Span*> active;
  size_t next = 0;
  for (const Span* root : roots) {
    while (next < work.size() && work[next]->start < root->end) {
      active.push_back(work[next++]);
    }
    active.erase(
        std::remove_if(active.begin(), active.end(),
                       [&](const Span* s) { return s->end <= root->start; }),
        active.end());
    out.push_back(AnalyzeRoot(*root, active));
  }
  return out;
}

void BreakdownReporter::AddRun(const std::string& label,
                               const SpanRecorder& recorder) {
  RunAgg& run = runs_[label];
  run.spans += recorder.span_count();
  CriticalPathAnalyzer analyzer(&recorder);
  for (const RequestBreakdown& b : analyzer.Analyze()) {
    ++run.requests;
    if (!b.conserved) ++run.violations;
    KindAgg& kind = run.kinds[b.kind];
    ++kind.count;
    kind.e2e.Add(static_cast<double>(b.end - b.start));
    // Per request, a stage is charged the sum of its exclusive segments.
    std::map<std::string, double> totals;
    for (const PathSegment& seg : b.segments) {
      std::string key = recorder.NodeTag(seg.node) + "/" +
                        (seg.stage == Stage::kRequest ? "request.self"
                                                      : StageName(seg.stage));
      totals[key] += static_cast<double>(seg.end - seg.begin);
    }
    for (const auto& [key, ns] : totals) kind.stages[key].Add(ns);
  }
}

uint64_t BreakdownReporter::request_count() const {
  uint64_t n = 0;
  for (const auto& [label, run] : runs_) n += run.requests;
  return n;
}

uint64_t BreakdownReporter::conservation_violations() const {
  uint64_t n = 0;
  for (const auto& [label, run] : runs_) n += run.violations;
  return n;
}

std::string BreakdownReporter::ToJson() const {
  std::string out;
  out += "{\n \"bench\": \"" + JsonEscape(bench_name_) + "\",\n \"runs\": {";
  bool first_run = true;
  for (const auto& [label, run] : runs_) {
    out += first_run ? "\n" : ",\n";
    first_run = false;
    out += "  \"" + JsonEscape(label) + "\": {\n";
    out += "   \"requests\": " + std::to_string(run.requests) + ",\n";
    out += "   \"spans\": " + std::to_string(run.spans) + ",\n";
    out += "   \"conservation_violations\": " + std::to_string(run.violations) +
           ",\n";
    out += "   \"kinds\": {";
    bool first_kind = true;
    for (const auto& [kind, agg] : run.kinds) {
      out += first_kind ? "\n" : ",\n";
      first_kind = false;
      out += "    \"" + JsonEscape(kind) + "\": {\n";
      out += "     \"count\": " + std::to_string(agg.count) + ",\n";
      out += "     \"e2e\": ";
      AppendJson(agg.e2e, &out);
      out += ",\n     \"stages\": {";
      bool first_stage = true;
      for (const auto& [key, stat] : agg.stages) {
        out += first_stage ? "\n" : ",\n";
        first_stage = false;
        out += "      \"" + JsonEscape(key) + "\": ";
        AppendJson(stat, &out);
      }
      out += "\n     }\n    }";
    }
    out += "\n   }\n  }";
  }
  out += "\n }\n}\n";
  return out;
}

Status BreakdownReporter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << ToJson();
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

void BreakdownReporter::ExportGauges(MetricsRegistry* registry,
                                     const std::string& prefix) const {
  auto sanitized = [](std::string key) {
    for (char& c : key) {
      if (c == '/') c = '.';
    }
    return key;
  };
  for (const auto& [label, run] : runs_) {
    (void)label;  // campaigns pass one scenario per reporter via prefix
    for (const auto& [kind, agg] : run.kinds) {
      std::string base = prefix + "breakdown." + kind + ".";
      registry->GetGauge(base + "count")
          ->Set(static_cast<double>(agg.count));
      registry->GetGauge(base + "e2e.p50_us")
          ->Set(agg.e2e.hist.Percentile(50) / 1000.0);
      registry->GetGauge(base + "e2e.p99_us")
          ->Set(agg.e2e.hist.Percentile(99) / 1000.0);
      for (const auto& [key, stat] : agg.stages) {
        registry->GetGauge(base + sanitized(key) + ".total_us")
            ->Set(stat.total / 1000.0);
      }
    }
  }
}

void EmitSpansToTrace(const SpanRecorder& recorder,
                      ChromeTraceWriter* writer) {
  for (const Span& s : recorder.spans()) {
    if (!s.closed) continue;
    std::string name = recorder.NodeTag(s.node) + "/" + s.name;
    writer->EmitSpan(name, s.start, s.end, s.id);
  }
}

}  // namespace xssd::obs
