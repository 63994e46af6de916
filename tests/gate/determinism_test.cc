// Seeded determinism, scheduler-backend equivalence and zero perturbation
// from sampling and tracing, on fig09, the conformance campaign and the
// DES kernel bench.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

using obs::JsonValue;

TEST(Fig09Gate, DeterministicBackendEquivalentAndUnperturbed) {
  const std::string line =
      "20 --metrics metrics.json --breakdown breakdown.json";
  const std::vector<std::string> args = Args(line);
  const std::vector<std::string> sampled = Args(
      line + " --timeseries ts.json --ts-interval-us 500 --trace trace.json");
  std::vector<BenchRun> runs = RunBenches({
      {"wheel", "fig09_local_logging", args},
      {"rerun", "fig09_local_logging", args},
      {"heap", "fig09_local_logging", args, "heap"},
      {"parallel", "fig09_local_logging", args, "parallel"},
      {"sampled", "fig09_local_logging", sampled},
  });
  for (const BenchRun& run : runs) ASSERT_TRUE(Succeeded(run));
  const BenchRun& wheel = runs[0];
  const std::string metrics = wheel.Read("metrics.json");
  const std::string breakdown = wheel.Read("breakdown.json");

  // A rerun and the other two backends reproduce every byte.
  for (size_t i : {1, 2, 3}) {
    SCOPED_TRACE(runs[i].dir);
    EXPECT_TRUE(BytesEqual(metrics, runs[i].Read("metrics.json")));
    EXPECT_TRUE(BytesEqual(breakdown, runs[i].Read("breakdown.json")));
  }

  // Sampling and tracing move no metric outside obs.*.
  const BenchRun& on = runs[4];
  EXPECT_TRUE(JsonEqualIgnoringObs(metrics, on.Read("metrics.json")));
  EXPECT_TRUE(TimeSeriesHasWindows(on.Read("ts.json")));
  JsonValue trace = ParseOrFail(on.Read("trace.json"));
  const JsonValue* events = trace.Find("traceEvents");
  EXPECT_TRUE(events != nullptr && !events->items.empty()) << "empty trace";

  // The snapshot's counters (its first section) carry the device
  // namespaces.
  const std::string counters = metrics.substr(0, metrics.find("\"gauges\""));
  for (const char* prefix : {"\"cmb.", "\"destage.", "\"flash."}) {
    EXPECT_NE(counters.find(prefix), std::string::npos) << prefix;
  }

  // The breakdown attributes real device time, not only client self time.
  JsonValue doc = ParseOrFail(breakdown);
  EXPECT_EQ(StringAt(doc, {"bench"}), "fig09");
  double requests = 0;
  if (const JsonValue* run_map = doc.Find("runs")) {
    for (const auto& [label, run] : run_map->fields) {
      requests += NumberAt(run, {"requests"});
      if (const JsonValue* kinds = run.Find("kinds")) {
        for (const auto& [kind, agg] : kinds->fields) {
          EXPECT_GT(NumberAt(agg, {"count"}), 0) << label << "/" << kind;
          const JsonValue* stages = agg.Find("stages");
          EXPECT_TRUE(stages != nullptr && !stages->fields.empty())
              << label << "/" << kind << " has no stages";
        }
      }
    }
  }
  EXPECT_GT(requests, 0);
  for (const char* stage : {"cmb.stage", "host.poll", "request.self"}) {
    EXPECT_NE(breakdown.find(stage), std::string::npos) << stage;
  }
}

TEST(CheckCampaignGate, DeterministicAndBackendEquivalent) {
  const std::vector<std::string> args = Args(
      "--runs 100 --seed 1 --ops 40 --shrink --dump-dir . --metrics "
      "metrics.json");
  std::vector<BenchRun> runs = RunBenches({
      {"wheel", "check_campaign", args},
      {"rerun", "check_campaign", args},
      {"heap", "check_campaign", args, "heap"},
      {"parallel", "check_campaign", args, "parallel"},
  });
  for (const BenchRun& run : runs) ASSERT_TRUE(Succeeded(run));
  for (size_t i : {1, 2, 3}) {
    SCOPED_TRACE(runs[i].dir);
    EXPECT_TRUE(
        BytesEqual(runs[0].Read("metrics.json"), runs[i].Read("metrics.json")));
  }
}

// A conformance sample on the parallel backend alone. The test above
// covers this backend too, next to three serial runs; this one is what the
// TSan job selects, since only parallel-backend runs start worker threads.
TEST(CheckCampaignGate, ParallelSampleConforms) {
  EXPECT_TRUE(Succeeded(
      RunBench({"run", "check_campaign",
                Args("--runs 50 --seed 1 --ops 40 --metrics metrics.json"),
                "parallel"})));
}

// The kernel mixes execute the same virtual workload on every backend;
// the fabric mix runs the parallel backend's worker threads.
TEST(KernelBenchGate, BackendsRunTheSameWorkload) {
  BenchRun run = RunBench(
      {"run", "kernel_bench", Args("--events 200000 --out BENCH_kernel.json")});
  ASSERT_TRUE(Succeeded(run));
  for (const std::string& violation :
       KernelBenchViolations(ParseOrFail(run.Read("BENCH_kernel.json")))) {
    ADD_FAILURE() << violation;
  }
}

}  // namespace
}  // namespace xssd::gate
