#include "obs/span.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/node.h"
#include "host/xcalls.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace xssd::obs {
namespace {

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 128;
  return config;
}

TEST(SpanRecorder, BuildsATreeWithStampedVirtualTimes) {
  sim::Simulator sim;
  SpanRecorder spans(&sim);
  uint16_t node = spans.InternNode("dev");
  EXPECT_EQ(spans.NodeTag(node), "dev");
  EXPECT_EQ(spans.InternNode("dev"), node);  // interning is idempotent

  SpanContext root = spans.StartTrace("append", node, 0, 100);
  SpanContext child;
  sim.Schedule(sim::Us(2), [&] {
    child = spans.StartSpan(Stage::kCmbStage, node, root);
    spans.SetRange(child, 0, 100);
  });
  sim.Schedule(sim::Us(5), [&] { spans.EndSpan(child); });
  sim.Schedule(sim::Us(7), [&] { spans.EndSpan(root); });
  sim.Run();

  ASSERT_EQ(spans.span_count(), 2u);
  const Span* r = spans.Find(root.span_id);
  const Span* c = spans.Find(child.span_id);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->stage, Stage::kRequest);
  EXPECT_STREQ(r->name, "append");
  EXPECT_EQ(r->start, 0u);
  EXPECT_EQ(r->end, sim::Us(7));
  EXPECT_TRUE(r->closed);
  EXPECT_EQ(c->parent, root.span_id);
  EXPECT_EQ(c->trace_id, r->trace_id);
  EXPECT_EQ(c->stage, Stage::kCmbStage);
  EXPECT_EQ(c->start, sim::Us(2));
  EXPECT_EQ(c->end, sim::Us(5));
  EXPECT_EQ(c->offset_begin, 0u);
  EXPECT_EQ(c->offset_end, 100u);
}

TEST(SpanRecorder, OrphanChildGetsItsOwnTraceId) {
  sim::Simulator sim;
  SpanRecorder spans(&sim);
  uint16_t node = spans.InternNode("dev");
  SpanContext root = spans.StartTrace("append", node, 0, 64);
  // No ambient context (timer-driven work): the child cannot name a parent
  // and must not be silently glued onto an unrelated trace.
  SpanContext orphan = spans.StartSpan(Stage::kDestagePage, node, {});
  EXPECT_NE(spans.Find(orphan.span_id)->trace_id,
            spans.Find(root.span_id)->trace_id);
  EXPECT_EQ(spans.Find(orphan.span_id)->parent, 0u);
}

TEST(SpanRecorder, EndIsClampedAndIdempotent) {
  sim::Simulator sim;
  SpanRecorder spans(&sim);
  uint16_t node = spans.InternNode("dev");
  SpanContext ctx;
  sim.Schedule(sim::Us(3), [&] { ctx = spans.StartTrace("read", node, 0, 1); });
  sim.Run();
  spans.EndSpanAt(ctx, sim::Us(1));  // before start: clamps to start
  EXPECT_EQ(spans.Find(ctx.span_id)->end, sim::Us(3));
  spans.EndSpanAt(ctx, sim::Us(9));  // already closed: ignored
  EXPECT_EQ(spans.Find(ctx.span_id)->end, sim::Us(3));
}

TEST(SpanRecorder, ScopedContextRestoresAndToleratesNullRecorder) {
  sim::Simulator sim;
  SpanRecorder spans(&sim);
  uint16_t node = spans.InternNode("dev");
  SpanContext a = spans.StartTrace("append", node, 0, 1);
  SpanContext b = spans.StartTrace("fsync", node, 0, 1);
  spans.set_current(a);
  {
    ScopedContext scope(&spans, b);
    EXPECT_EQ(spans.current().span_id, b.span_id);
    { ScopedContext noop(nullptr, a); }  // must not crash or leak
  }
  EXPECT_EQ(spans.current().span_id, a.span_id);
}

struct WorkloadResult {
  std::string metrics_json;
  std::string breakdown_json;
  size_t span_count = 0;
};

/// Drives a small append+fsync+read workload against one node, optionally
/// with tracing attached (or attached and immediately detached again).
/// Returns the exported metrics snapshot and — when traced — the breakdown
/// JSON, so callers can compare runs byte for byte.
WorkloadResult RunWorkload(bool with_spans, bool enable_then_disable) {
  WorkloadResult out;
  sim::Simulator sim;
  SpanRecorder spans(&sim);
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{},
                         "span-test");
  EXPECT_TRUE(node.Init().ok());
  MetricsRegistry registry;
  node.EnableMetrics(&registry);
  if (with_spans) node.EnableSpans(&spans, "dev");
  if (enable_then_disable) node.EnableSpans(nullptr, "");

  std::vector<uint8_t> data(3000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  EXPECT_EQ(host::x_pwrite(sim, node.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  EXPECT_EQ(host::x_fsync(sim, node.client()), 0);
  std::vector<uint8_t> tail(512);
  EXPECT_EQ(host::x_pread(sim, node.client(), node.driver(), tail.data(),
                          tail.size()),
            static_cast<ssize_t>(tail.size()));
  sim.RunFor(sim::Ms(1));

  if (with_spans && !enable_then_disable) {
    BreakdownReporter reporter("span_test");
    reporter.AddRun("run", spans);
    EXPECT_EQ(reporter.conservation_violations(), 0u);
    out.breakdown_json = reporter.ToJson();
  }
  out.span_count = spans.span_count();
  JsonExporter exporter(&registry);
  out.metrics_json = exporter.ToString();
  return out;
}

TEST(SpanRecorder, WorkloadProducesRootsAndNestedDeviceSpans) {
  sim::Simulator sim;
  SpanRecorder recorder(&sim);
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{},
                         "span-test");
  ASSERT_TRUE(node.Init().ok());
  node.EnableSpans(&recorder, "dev");
  std::vector<uint8_t> data(3000, 0xAB);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.RunFor(sim::Ms(1));

  size_t roots = 0, cmb = 0, destage = 0, flash = 0, polls = 0;
  for (const Span& span : recorder.spans()) {
    EXPECT_TRUE(span.closed) << StageName(span.stage);
    switch (span.stage) {
      case Stage::kRequest:
        ++roots;
        break;
      case Stage::kCmbStage:
        ++cmb;
        // Chunk spans carry the stream extent for offset-based joins.
        EXPECT_GT(span.offset_end, span.offset_begin);
        break;
      case Stage::kDestagePage:
        ++destage;
        break;
      case Stage::kFlashProgram:
        ++flash;
        break;
      case Stage::kHostPoll:
        ++polls;
        break;
      default:
        break;
    }
  }
  EXPECT_GE(roots, 2u);    // append + fsync
  EXPECT_GE(cmb, 1u);      // staged chunks
  EXPECT_GE(destage, 1u);  // at least one page destaged
  EXPECT_GE(flash, 1u);    // its flash program
  EXPECT_GE(polls, 1u);    // fsync credit polling
  // Device spans nest: every flash.program has a destage.page ancestor.
  for (const Span& span : recorder.spans()) {
    if (span.stage != Stage::kFlashProgram) continue;
    ASSERT_NE(span.parent, 0u);
    EXPECT_EQ(recorder.Find(span.parent)->stage, Stage::kDestagePage);
  }
}

TEST(SpanRecorder, BreakdownJsonIsByteIdenticalAcrossIdenticalRuns) {
  WorkloadResult a = RunWorkload(true, false);
  WorkloadResult b = RunWorkload(true, false);
  ASSERT_FALSE(a.breakdown_json.empty());
  EXPECT_EQ(a.breakdown_json, b.breakdown_json);
  Result<JsonValue> parsed = ParseJson(a.breakdown_json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(SpanRecorder, DisabledTracingAllocatesNothingAndChangesNoCounter) {
  // Same seeded workload three ways: never enabled, enabled, and enabled
  // then detached. Tracing is passive bookkeeping in virtual time, so the
  // metrics snapshots must be byte-identical — spans observe, never
  // perturb.
  WorkloadResult baseline = RunWorkload(false, false);
  EXPECT_EQ(baseline.span_count, 0u);

  WorkloadResult traced = RunWorkload(true, false);
  EXPECT_EQ(baseline.metrics_json, traced.metrics_json);
  EXPECT_GT(traced.span_count, 0u);

  // Detached before any traffic: nothing may be recorded.
  WorkloadResult detached = RunWorkload(true, true);
  EXPECT_EQ(baseline.metrics_json, detached.metrics_json);
  EXPECT_EQ(detached.span_count, 0u);
}

}  // namespace
}  // namespace xssd::obs
