// Gates that need the machine to themselves (RUN_SERIAL): the wall-clock
// floors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

using obs::JsonValue;

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
