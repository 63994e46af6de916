// The repository benchmark as a simulation-identity check: every workload
// passes its own correctness checks and reproduces its pinned sim_digest,
// which depends only on the seed. A change that means to alter what the
// simulator computes re-pins these digests and says why.

#include <gtest/gtest.h>

#include <ostream>
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
    {"replicated_appends", 1, "0c9668ee5ce011dc"},
    {"replicated_appends", 2027, "c80e99156a823707"},
    {"ftl_gc_churn", 1, "fa02d990148100cd"},
    {"ftl_gc_churn", 2027, "f8712c1874c0fe76"},
};

// Runs `pin`'s workload and seed at `--trace trace`: it must pass its own
// checks and print the pinned digest.
void ExpectPinnedRun(const PinnedRun& pin, int trace) {
  // An empty scheduler leaves XSSD_SIM_SCHEDULER unset: perfbench refuses
  // it and always runs the wheel.
  BenchRun run = RunBench(
      {"run", "perfbench",
       Args(std::string("--workload ") + pin.workload + " --seed " +
            std::to_string(pin.seed) + " --seconds 1 --trace " +
            std::to_string(trace)),
       /*scheduler=*/""});
  ASSERT_TRUE(Succeeded(run));
  const std::string out = run.Stdout();
  EXPECT_NE(out.find(std::string("# sim_digest: ") + pin.digest + "\n"),
            std::string::npos)
      << out;
  // The result object is the last line of stdout.
  const size_t end = out.find_last_not_of('\n');
  ASSERT_NE(end, std::string::npos);
  const size_t begin = out.rfind('\n', end);
  JsonValue result = ParseOrFail(out.substr(
      begin == std::string::npos ? 0 : begin + 1, end - begin));
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

}  // namespace
}  // namespace xssd::gate
