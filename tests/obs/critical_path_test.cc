#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace xssd::obs {
namespace {

/// Builds synthetic span trees by driving the recorder at chosen virtual
/// times: schedule a callback at `at`, run the simulator up to it.
class CriticalPathTest : public ::testing::Test {
 protected:
  void At(sim::SimTime at, std::function<void()> fn) {
    sim_.ScheduleAt(at, std::move(fn));
  }

  std::vector<RequestBreakdown> Analyze() {
    sim_.Run();
    CriticalPathAnalyzer analyzer(&spans_);
    return analyzer.Analyze();
  }

  static sim::SimTime Attributed(const RequestBreakdown& b) {
    sim::SimTime total = 0;
    for (const PathSegment& seg : b.segments) total += seg.end - seg.begin;
    return total;
  }

  sim::Simulator sim_;
  SpanRecorder spans_{&sim_};
  uint16_t node_ = spans_.InternNode("dev");
};

TEST_F(CriticalPathTest, SegmentsPartitionTheWindowExactly) {
  SpanContext root, child_a, child_b;
  At(100, [&] { root = spans_.StartTrace("append", node_, 0, 64); });
  At(110, [&] { child_a = spans_.StartSpan(Stage::kCmbStage, node_, root); });
  At(130, [&] { spans_.EndSpan(child_a); });
  At(150, [&] {
    child_b = spans_.StartSpan(Stage::kDestagePage, node_, root);
  });
  At(180, [&] { spans_.EndSpan(child_b); });
  At(200, [&] { spans_.EndSpan(root); });

  std::vector<RequestBreakdown> breakdowns = Analyze();
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  EXPECT_EQ(Attributed(b), b.end - b.start);
  // self [100,110), cmb [110,130), self [130,150), destage [150,180),
  // self [180,200)
  ASSERT_EQ(b.segments.size(), 5u);
  EXPECT_EQ(b.segments[0].stage, Stage::kRequest);
  EXPECT_EQ(b.segments[1].stage, Stage::kCmbStage);
  EXPECT_EQ(b.segments[1].begin, 110u);
  EXPECT_EQ(b.segments[1].end, 130u);
  EXPECT_EQ(b.segments[2].stage, Stage::kRequest);
  EXPECT_EQ(b.segments[3].stage, Stage::kDestagePage);
  EXPECT_EQ(b.segments[4].stage, Stage::kRequest);
  EXPECT_EQ(b.segments[4].end, 200u);
}

TEST_F(CriticalPathTest, DeeperStageWinsTheOverlap) {
  // A replication wait (depth 3) covering [10,90) with an NTB hop
  // (depth 4) nested at [30,50): the hop instant belongs to the link, the
  // rest of the interval to the wait.
  SpanContext root, wait, hop;
  At(0, [&] { root = spans_.StartTrace("fsync", node_, 0, 32); });
  At(10, [&] {
    wait = spans_.StartSpan(Stage::kReplicationWait, node_, root);
  });
  At(30, [&] { hop = spans_.StartSpan(Stage::kNtbLink, node_, wait); });
  At(50, [&] { spans_.EndSpan(hop); });
  At(90, [&] { spans_.EndSpan(wait); });
  At(100, [&] { spans_.EndSpan(root); });

  std::vector<RequestBreakdown> breakdowns = Analyze();
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  ASSERT_EQ(b.segments.size(), 5u);
  EXPECT_EQ(b.segments[1].stage, Stage::kReplicationWait);
  EXPECT_EQ(b.segments[1].end, 30u);
  EXPECT_EQ(b.segments[2].stage, Stage::kNtbLink);
  EXPECT_EQ(b.segments[2].begin, 30u);
  EXPECT_EQ(b.segments[2].end, 50u);
  EXPECT_EQ(b.segments[3].stage, Stage::kReplicationWait);
  EXPECT_EQ(b.segments[3].begin, 50u);
  EXPECT_EQ(b.segments[3].end, 90u);
}

TEST_F(CriticalPathTest, OrphanSpansJoinByOffsetRange) {
  // An orphan destage span (timer-cut page, no ambient context) that
  // carries bytes [0,64) overlapping the request's range is charged to the
  // request window; an orphan with a disjoint range is not.
  SpanContext root, joined, disjoint;
  At(0, [&] { root = spans_.StartTrace("append", node_, 0, 64); });
  At(20, [&] {
    joined = spans_.StartSpan(Stage::kDestagePage, node_, {});
    spans_.SetRange(joined, 32, 96);
    disjoint = spans_.StartSpan(Stage::kFlashProgram, node_, {});
    spans_.SetRange(disjoint, 64, 128);
  });
  At(60, [&] {
    spans_.EndSpan(joined);
    spans_.EndSpan(disjoint);
  });
  At(80, [&] { spans_.EndSpan(root); });

  std::vector<RequestBreakdown> breakdowns = Analyze();
  // Orphans mint their own traces but are not request roots, so exactly one
  // breakdown comes out.
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  ASSERT_EQ(b.segments.size(), 3u);
  EXPECT_EQ(b.segments[1].stage, Stage::kDestagePage);
  EXPECT_EQ(b.segments[1].begin, 20u);
  EXPECT_EQ(b.segments[1].end, 60u);
  for (const PathSegment& seg : b.segments) {
    EXPECT_NE(seg.stage, Stage::kFlashProgram);  // disjoint orphan excluded
  }
}

TEST_F(CriticalPathTest, AdjacentSegmentsOfOneStageMerge) {
  // Two back-to-back cmb.stage chunks produce one merged segment, not two.
  SpanContext root, chunk_a, chunk_b;
  At(0, [&] { root = spans_.StartTrace("append", node_, 0, 128); });
  At(10, [&] { chunk_a = spans_.StartSpan(Stage::kCmbStage, node_, root); });
  At(40, [&] {
    spans_.EndSpan(chunk_a);
    chunk_b = spans_.StartSpan(Stage::kCmbStage, node_, root);
  });
  At(70, [&] { spans_.EndSpan(chunk_b); });
  At(80, [&] { spans_.EndSpan(root); });

  std::vector<RequestBreakdown> breakdowns = Analyze();
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  ASSERT_EQ(b.segments.size(), 3u);
  EXPECT_EQ(b.segments[1].stage, Stage::kCmbStage);
  EXPECT_EQ(b.segments[1].begin, 10u);
  EXPECT_EQ(b.segments[1].end, 70u);
}

TEST_F(CriticalPathTest, ChildSpillingPastTheRootIsClamped) {
  // A flash program outliving the request (fsync acked from CMB) only
  // charges its in-window part; conservation still holds.
  SpanContext root, flash;
  At(0, [&] { root = spans_.StartTrace("fsync", node_, 0, 16); });
  At(30, [&] { flash = spans_.StartSpan(Stage::kFlashProgram, node_, root); });
  At(50, [&] { spans_.EndSpan(root); });
  At(500, [&] { spans_.EndSpan(flash); });

  std::vector<RequestBreakdown> breakdowns = Analyze();
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  ASSERT_EQ(b.segments.size(), 2u);
  EXPECT_EQ(b.segments[1].stage, Stage::kFlashProgram);
  EXPECT_EQ(b.segments[1].begin, 30u);
  EXPECT_EQ(b.segments[1].end, 50u);  // clamped to the root's end
}

TEST_F(CriticalPathTest, OpenAndZeroDurationSpansAreIgnored) {
  SpanContext root, open_child, instant;
  At(0, [&] { root = spans_.StartTrace("read", node_, 0, 8); });
  At(10, [&] {
    open_child = spans_.StartSpan(Stage::kNvmeRead, node_, root);
    instant = spans_.StartSpan(Stage::kHostPoll, node_, root);
    spans_.EndSpan(instant);  // zero-duration: no time to attribute
  });
  At(40, [&] { spans_.EndSpan(root); });
  // open_child is never closed.

  std::vector<RequestBreakdown> breakdowns = Analyze();
  ASSERT_EQ(breakdowns.size(), 1u);
  const RequestBreakdown& b = breakdowns[0];
  EXPECT_TRUE(b.conserved);
  ASSERT_EQ(b.segments.size(), 1u);
  EXPECT_EQ(b.segments[0].stage, Stage::kRequest);
  EXPECT_EQ(Attributed(b), b.end - b.start);
}

TEST_F(CriticalPathTest, ReporterAggregatesAndEmitsValidJson) {
  SpanContext root, child;
  At(0, [&] { root = spans_.StartTrace("append", node_, 0, 64); });
  At(10, [&] { child = spans_.StartSpan(Stage::kCmbStage, node_, root); });
  At(30, [&] { spans_.EndSpan(child); });
  At(50, [&] { spans_.EndSpan(root); });
  sim_.Run();

  BreakdownReporter reporter("unit");
  reporter.AddRun("run0", spans_);
  EXPECT_EQ(reporter.request_count(), 1u);
  EXPECT_EQ(reporter.conservation_violations(), 0u);
  std::string json = reporter.ToJson();
  Result<JsonValue> parsed = ParseJson(json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(json.find("\"append\""), std::string::npos);
  EXPECT_NE(json.find("\"dev/cmb.stage\""), std::string::npos);
  EXPECT_NE(json.find("\"dev/request.self\""), std::string::npos);

  MetricsRegistry registry;
  reporter.ExportGauges(&registry, "bench.unit.run0.");
  EXPECT_EQ(
      registry.GetGauge("bench.unit.run0.breakdown.append.count")->value(),
      1.0);
  EXPECT_EQ(registry
                .GetGauge(
                    "bench.unit.run0.breakdown.append.dev.cmb.stage.total_us")
                ->value(),
            20.0 / 1000.0);
}

}  // namespace
}  // namespace xssd::obs
