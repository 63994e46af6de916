// The gate harness's comparisons, each fed an input that must pass and one
// that differs and must fail: a comparer that accepts everything would
// turn every gate green.

#include "harness.h"

#include <gtest/gtest.h>

#include <string>

namespace xssd::gate {
namespace {

TEST(GateCompare, BytesEqualFlagsOneFlippedByte) {
  std::string a = "{\"counters\": {\"cmb.appends\": 12}}\n";
  std::string b = a;
  EXPECT_TRUE(BytesEqual(a, b));
  b[b.size() / 2] ^= 1;
  EXPECT_FALSE(BytesEqual(a, b));
  EXPECT_FALSE(BytesEqual(a, a + " "));
}

TEST(GateCompare, JsonEqualIgnoresOnlyObsKeys) {
  const char* plain =
      R"({"counters": {"cmb.appends": 12, "obs.flightrec.appends": 3},
          "gauges": {"bench.x.y": 1.5}})";
  const char* sampled =
      R"({"counters": {"cmb.appends": 12, "obs.flightrec.appends": 9,
                       "obs.timeseries.windows": 40},
          "gauges": {"bench.x.y": 1.5}})";
  EXPECT_TRUE(JsonEqualIgnoringObs(plain, sampled));
  // Any non-obs difference fails: a value, an extra key, a missing key.
  EXPECT_FALSE(JsonEqualIgnoringObs(
      plain,
      R"({"counters": {"cmb.appends": 13}, "gauges": {"bench.x.y": 1.5}})"));
  EXPECT_FALSE(JsonEqualIgnoringObs(
      plain, R"({"counters": {"cmb.appends": 12, "cmb.extra": 0},
                 "gauges": {"bench.x.y": 1.5}})"));
  EXPECT_FALSE(
      JsonEqualIgnoringObs(plain, R"({"counters": {"cmb.appends": 12}})"));
  EXPECT_FALSE(JsonEqualIgnoringObs(plain, "not json"));
}

TEST(GateCompare, RowsEqualIgnoresOnlyTheTrailerLine) {
  std::string rows = "period  p50\n0.4     4.61\n1.6     5.90\n";
  EXPECT_TRUE(RowsEqual(rows + "metrics snapshot: a.json (10 metrics)\n",
                        rows + "metrics snapshot: b.json (10 metrics)\n"));
  std::string changed = "period  p50\n0.4     4.62\n1.6     5.90\n";
  EXPECT_FALSE(RowsEqual(rows + "metrics snapshot: a.json (10 metrics)\n",
                         changed + "metrics snapshot: a.json (10 metrics)\n"));
}

obs::JsonValue& MutableAt(obs::JsonValue& doc,
                          std::initializer_list<std::string_view> path) {
  obs::JsonValue* v = &doc;
  for (std::string_view key : path) {
    v = const_cast<obs::JsonValue*>(v->Find(key));
  }
  return *v;
}

// The checked-in trajectory point clears every floor; each edit below
// breaks exactly one.
TEST(GateFloors, KernelFloorFailsBelowAnyFloor) {
  obs::JsonValue floor =
      ParseOrFail(ReadFile(SourcePath("bench/baselines/kernel_floor.json")));
  obs::JsonValue doc = ParseOrFail(ReadFile(SourcePath("BENCH_kernel.json")));
  EXPECT_TRUE(KernelBenchViolations(doc).empty());
  EXPECT_TRUE(KernelFloorViolations({doc}, floor).empty());

  obs::JsonValue slow = doc;
  MutableAt(slow, {"mixes", "fabric", "wheel", "events_per_sec"}).number = 1e3;
  EXPECT_EQ(KernelFloorViolations({slow}, floor).size(), 1u);
  obs::JsonValue no_speedup = doc;
  MutableAt(no_speedup, {"mixes", "fuzz", "wheel_vs_heap_speedup"}).number =
      1.0;
  EXPECT_EQ(KernelFloorViolations({no_speedup}, floor).size(), 1u);
  // Floors bind the median run: one outlier moves it in neither direction.
  EXPECT_TRUE(KernelFloorViolations({doc, slow, doc}, floor).empty());
  EXPECT_EQ(KernelFloorViolations({slow, doc, slow}, floor).size(), 1u);
  obs::JsonValue diverged = doc;
  MutableAt(diverged, {"mixes", "fuzz", "heap", "events"}).number -= 1;
  EXPECT_EQ(KernelBenchViolations(diverged).size(), 1u);
}

TEST(GateFloors, ObsFloorFailsBelowAnyFloor) {
  obs::JsonValue floor =
      ParseOrFail(ReadFile(SourcePath("bench/baselines/obs_floor.json")));
  auto doc = [](double overhead) {
    return ParseOrFail(
        R"({"schema": "xssd.obs-bench.v1",
            "sampler_off": {"events_per_sec": 1e7},
            "sampler_on": {"events_per_sec": 9e6, "windows": 250},
            "sampler_overhead_ratio": )" +
        obs::JsonNumber(overhead) +
        R"(, "flightrec": {"appends_per_sec": 2e7}})");
  };
  EXPECT_TRUE(ObsFloorViolations({doc(1.1)}, floor).empty());
  EXPECT_EQ(ObsFloorViolations({doc(2.5)}, floor).size(), 1u);
  EXPECT_EQ(ObsFloorViolations({obs::JsonValue()}, floor).size(), 5u);
  EXPECT_TRUE(
      ObsFloorViolations({doc(1.1), doc(2.5), doc(1.2)}, floor).empty());
  EXPECT_EQ(ObsFloorViolations({doc(2.5), doc(1.1), doc(2.6)}, floor).size(),
            1u);
  // A run that lacks the metrics fails every floor.
  EXPECT_EQ(ObsFloorViolations({doc(1.1), doc(1.1), {}}, floor).size(), 5u);
}

}  // namespace
}  // namespace xssd::gate
