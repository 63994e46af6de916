// Gates that need the machine to themselves (RUN_SERIAL): wall-clock
// floors, and the parallel scheduler's worker threads, which meet at a
// barrier every lookahead window and slow down ~10x when ctest -j
// oversubscribes the cores.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

using obs::JsonValue;

// fig13 runs its two fabrics as separate scheduler domains.
TEST(Fig13Gate, BackendsAgreeOnMetricsAndRows) {
  const std::vector<std::string> args = {"--metrics", "metrics.json"};
  std::vector<BenchRun> runs = RunBenches({
      {"wheel", "fig13_replication_delay", args},
      {"heap", "fig13_replication_delay", args, "heap"},
      {"parallel", "fig13_replication_delay", args, "parallel"},
  });
  for (const BenchRun& run : runs) ASSERT_TRUE(Succeeded(run));
  for (size_t i : {1, 2}) {
    SCOPED_TRACE(runs[i].dir);
    EXPECT_TRUE(
        BytesEqual(runs[0].Read("metrics.json"), runs[i].Read("metrics.json")));
    EXPECT_TRUE(RowsEqual(runs[0].Stdout(), runs[i].Stdout()));
  }
}

// The floors live in bench/baselines/ and bind only optimized builds,
// where the numbers mean something. Three runs, one after another: the
// floors bind each metric's median.
std::vector<JsonValue> RunThrice(const std::string& bench,
                                 const std::string& out) {
  std::vector<JsonValue> runs;
  for (int i = 1; i <= 3; ++i) {
    BenchRun run = RunBench({"run" + std::to_string(i), bench, {"--out", out}});
    EXPECT_TRUE(Succeeded(run));
    runs.push_back(ParseOrFail(run.Read(out)));
  }
  return runs;
}

TEST(FloorGate, KernelBenchMeetsTheKernelFloor) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "timing floors need an optimized build";
#endif
  JsonValue floor =
      ParseOrFail(ReadFile(SourcePath("bench/baselines/kernel_floor.json")));
  std::vector<JsonValue> runs = RunThrice("kernel_bench", "BENCH_kernel.json");
  for (const JsonValue& run : runs) {
    for (const std::string& v : KernelBenchViolations(run)) ADD_FAILURE() << v;
  }
  for (const std::string& v : KernelFloorViolations(runs, floor)) {
    ADD_FAILURE() << v;
  }
}

TEST(FloorGate, ObsBenchMeetsTheObsFloor) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "timing floors need an optimized build";
#endif
  JsonValue floor =
      ParseOrFail(ReadFile(SourcePath("bench/baselines/obs_floor.json")));
  for (const std::string& v :
       ObsFloorViolations(RunThrice("obs_bench", "BENCH_obs.json"), floor)) {
    ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace xssd::gate
