#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.h"

namespace xssd::obs {
namespace {

TEST(MetricsRegistry, FindBeforeRegisterReturnsNull) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("cmb.append_bytes"), nullptr);
  EXPECT_EQ(registry.FindGauge("cmb.credit"), nullptr);
  EXPECT_EQ(registry.FindLatency("nvme.cmd_latency_us"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistry, GetIsFindOrCreateWithStablePointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ftl.gc.pages_moved");
  counter->Add(7);
  // Second Get with the same name returns the same object, not a fresh one.
  EXPECT_EQ(registry.GetCounter("ftl.gc.pages_moved"), counter);
  EXPECT_EQ(counter->value(), 7u);
  EXPECT_EQ(registry.FindCounter("ftl.gc.pages_moved"), counter);

  Gauge* gauge = registry.GetGauge("ftl.dirty_pages");
  gauge->Set(3);
  gauge->Add(2);
  gauge->Sub(1);
  EXPECT_EQ(registry.GetGauge("ftl.dirty_pages"), gauge);
  EXPECT_DOUBLE_EQ(gauge->value(), 4.0);

  LatencyRecorder* latency = registry.GetLatency("destage.page_latency_us");
  latency->Add(12.5);
  EXPECT_EQ(registry.GetLatency("destage.page_latency_us"), latency);
  EXPECT_EQ(latency->count(), 1u);

  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("a.count");
  Gauge* gauge = registry.GetGauge("a.level");
  LatencyRecorder* latency = registry.GetLatency("a.lat_us");
  counter->Add(9);
  gauge->Set(1.5);
  latency->Add(3.0);

  registry.Reset();

  EXPECT_EQ(counter->value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_TRUE(latency->empty());
  // Handed-out pointers stay valid and names stay registered.
  EXPECT_EQ(registry.FindCounter("a.count"), counter);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, IterationIsSortedByName) {
  MetricsRegistry registry;
  // Register out of order; the exporter-facing map walks lexicographically.
  registry.GetCounter("zeta.ops");
  registry.GetCounter("alpha.ops");
  registry.GetCounter("mid.ops");
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) {
    names.push_back(name);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"alpha.ops", "mid.ops", "zeta.ops"}));
}

TEST(MetricsRegistryDeathTest, RejectsKindMismatch) {
  MetricsRegistry registry;
  registry.GetCounter("cmb.credit");
  EXPECT_DEATH(registry.GetGauge("cmb.credit"), "CHECK failed");
}

TEST(MetricsRegistryDeathTest, RejectsMalformedNames) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.GetCounter(""), "CHECK failed");
  EXPECT_DEATH(registry.GetCounter(".leading"), "CHECK failed");
  EXPECT_DEATH(registry.GetCounter("trailing."), "CHECK failed");
  EXPECT_DEATH(registry.GetCounter("has space"), "CHECK failed");
}

TEST(JsonExporter, EmptyRegistrySnapshotIsValidJson) {
  MetricsRegistry registry;
  std::string snapshot = JsonExporter(&registry).ToString();
  Result<JsonValue> parsed = ParseJson(snapshot);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(snapshot.find("\"counters\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"gauges\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"latencies\""), std::string::npos);
}

TEST(JsonExporter, SnapshotCarriesEveryMetricKind) {
  MetricsRegistry registry;
  registry.GetCounter("flash.reads")->Add(42);
  registry.GetGauge("ftl.free_blocks")->Set(17);
  LatencyRecorder* latency = registry.GetLatency("nvme.cmd_latency_us");
  for (int i = 1; i <= 10; ++i) latency->Add(i);

  std::string snapshot = JsonExporter(&registry).ToString();
  Result<JsonValue> parsed = ParseJson(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(snapshot.find("\"flash.reads\": 42"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("\"ftl.free_blocks\": 17"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("\"nvme.cmd_latency_us\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"count\": 10"), std::string::npos);
}

}  // namespace
}  // namespace xssd::obs
