// The repository benchmark as a simulation-identity check: every workload
// passes its own correctness checks and reproduces its pinned sim_digest,
// which depends only on the seed. A change that means to alter what the
// simulator computes re-pins these digests and says why. The benchmark's
// self-test runs here too: each planted fault must fail its check.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

using obs::JsonValue;

struct PinnedRun {
  const char* workload;
  int seed;
  const char* digest;
};

// Names the run in ctest's test list (the default prints pointer bytes).
void PrintTo(const PinnedRun& run, std::ostream* os) {
  *os << run.workload << " seed " << run.seed;
}

const PinnedRun kPinnedRuns[] = {
    {"tpcc_villars", 1, "bfda3a87ccc63a80"},
    {"tpcc_villars", 2027, "a44756e6ae006214"},
    {"destage_mixed_io", 1, "df3053c961ae1072"},
    {"destage_mixed_io", 2027, "0c0e62f18208a90d"},
    {"replicated_appends", 1, "bed0f2838ed90a4e"},
    {"replicated_appends", 2027, "0d276a2d6915a927"},
    {"ftl_gc_churn", 1, "fa02d990148100cd"},
    {"ftl_gc_churn", 2027, "f8712c1874c0fe76"},
};

// Runs perfbench at seed 1 for one second with `extra` flags. An empty
// scheduler leaves XSSD_SIM_SCHEDULER unset: perfbench refuses it and
// always runs the wheel.
BenchRun RunPerfbench(const std::string& workload, int seed, int trace,
                      const std::string& extra = "") {
  return RunBench({"run", "perfbench",
                   Args("--workload " + workload + " --seed " +
                        std::to_string(seed) + " --seconds 1 --trace " +
                        std::to_string(trace) + extra),
                   /*scheduler=*/""});
}

// The result object: the last line of stdout.
JsonValue ResultOf(const std::string& out) {
  const size_t end = out.find_last_not_of('\n');
  if (end == std::string::npos) return ParseOrFail("");
  const size_t begin = out.rfind('\n', end);
  return ParseOrFail(out.substr(
      begin == std::string::npos ? 0 : begin + 1, end - begin));
}

// Runs `pin`'s workload and seed at `--trace trace`: it must pass its own
// checks and print the pinned digest.
void ExpectPinnedRun(const PinnedRun& pin, int trace) {
  BenchRun run = RunPerfbench(pin.workload, pin.seed, trace);
  ASSERT_TRUE(Succeeded(run));
  const std::string out = run.Stdout();
  EXPECT_NE(out.find(std::string("# sim_digest: ") + pin.digest + "\n"),
            std::string::npos)
      << out;
  JsonValue result = ResultOf(out);
  const JsonValue* correct = result.Find("correct");
  ASSERT_NE(correct, nullptr);
  EXPECT_TRUE(correct->is_bool() && correct->boolean);
  EXPECT_EQ(NumberAt(result, {"failed"}), 0);
}

std::string RunName(const ::testing::TestParamInfo<PinnedRun>& info) {
  return std::string(info.param.workload) + "_seed" +
         std::to_string(info.param.seed);
}

class PerfbenchGate : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PerfbenchGate, CorrectWithPinnedDigest) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "perfbench runs take minutes in an unoptimized build";
#endif
  ExpectPinnedRun(GetParam(), /*trace=*/0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerfbenchGate,
                         ::testing::ValuesIn(kPinnedRuns), RunName);

// Zero perturbation: a traced run also runs the untraced episodes, fails if
// a traced episode's digest differs from theirs, and prints the same
// pinned digest. One seed per workload keeps the gate short.
class PerfbenchGateTraced : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PerfbenchGateTraced, KeepsPinnedDigest) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "perfbench runs take minutes in an unoptimized build";
#endif
  ExpectPinnedRun(GetParam(), /*trace=*/1);
}

std::vector<PinnedRun> RunsAtSeed(int seed) {
  std::vector<PinnedRun> runs;
  for (const PinnedRun& pin : kPinnedRuns) {
    if (pin.seed == seed) runs.push_back(pin);
  }
  return runs;
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerfbenchGateTraced,
                         ::testing::ValuesIn(RunsAtSeed(1)), RunName);

// One planted fault of `run.py --selftest`.
struct Plant {
  std::string workload;
  std::string check;
  int trace;
};

void PrintTo(const Plant& plant, std::ostream* os) {
  *os << plant.workload << " --plant " << plant.check;
}

// run.py's PLANTS table, read from the source so the two cannot drift. A
// table that cannot be found yields one entry that fails.
std::vector<Plant> PlantsFromRunPy() {
  const std::string text = ReadFile(SourcePath("perfbench/run.py"));
  const size_t begin = text.find("\nPLANTS = [");
  std::vector<Plant> plants;
  if (begin != std::string::npos) {
    std::istringstream table(
        text.substr(begin, text.find("\n]", begin) - begin));
    std::string line;
    while (std::getline(table, line)) {
      char workload[64], check[64];
      int trace = 0;
      if (std::sscanf(line.c_str(), " (\"%63[^\"]\", \"%63[^\"]\", %d)",
                      workload, check, &trace) == 3) {
        plants.push_back({workload, check, trace});
      }
    }
  }
  if (plants.empty()) plants.push_back({"", "run_py_has_no_plants", 0});
  return plants;
}

class PerfbenchGatePlanted : public ::testing::TestWithParam<Plant> {};

// The failed-operations check of the benchmark pipeline relies on each
// workload's correctness checks: a planted fault must come out as
// `"correct": false` with failed operations, from a run that exits 0.
TEST_P(PerfbenchGatePlanted, IsCaught) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "perfbench runs take minutes in an unoptimized build";
#endif
  const Plant& plant = GetParam();
  ASSERT_FALSE(plant.workload.empty()) << "no PLANTS table in perfbench/run.py";
  BenchRun run =
      RunPerfbench(plant.workload, 1, plant.trace, " --plant " + plant.check);
  ASSERT_TRUE(Succeeded(run));
  JsonValue result = ResultOf(run.Stdout());
  const JsonValue* correct = result.Find("correct");
  ASSERT_NE(correct, nullptr);
  EXPECT_TRUE(correct->is_bool() && !correct->boolean);
  EXPECT_GT(NumberAt(result, {"failed"}), 0);
}

INSTANTIATE_TEST_SUITE_P(
    , PerfbenchGatePlanted, ::testing::ValuesIn(PlantsFromRunPy()),
    [](const ::testing::TestParamInfo<Plant>& info) {
      return info.param.check;
    });

}  // namespace
}  // namespace xssd::gate
