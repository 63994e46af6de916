// The repository benchmark as a simulation-identity check: every workload
// passes its own correctness checks and reproduces its pinned sim_digest,
// which depends only on the seed. A change that means to alter what the
// simulator computes re-pins these digests and says why.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

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

class PerfbenchGate : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PerfbenchGate, CorrectWithPinnedDigest) {
#ifndef __OPTIMIZE__
  GTEST_SKIP() << "perfbench runs take minutes in an unoptimized build";
#endif
  const PinnedRun& pin = GetParam();
  // An empty scheduler leaves XSSD_SIM_SCHEDULER unset: perfbench refuses
  // it and always runs the wheel.
  BenchRun run = RunBench(
      {"run", "perfbench",
       Args(std::string("--workload ") + pin.workload + " --seed " +
            std::to_string(pin.seed) + " --seconds 1 --trace 0"),
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

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerfbenchGate, ::testing::ValuesIn(kPinnedRuns),
    [](const ::testing::TestParamInfo<PinnedRun>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace xssd::gate
