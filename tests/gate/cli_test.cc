// Bench command lines are parsed strictly: bad input exits 2 with usage
// before anything is simulated, --help exits 0.

#include <gtest/gtest.h>

#include <string>

#include "harness.h"

namespace xssd::gate {
namespace {

TEST(BenchCli, HelpPrintsUsageAndExitsZero) {
  BenchRun run = RunBench({"help", "fig09_local_logging", {"--help"}});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.Stdout().find("usage: fig09_local_logging"), std::string::npos);
  EXPECT_NE(run.Stdout().find("MEASURE_MS"), std::string::npos);
  EXPECT_EQ(run.Stdout().find("Figure 9"), std::string::npos);
}

// Each case must fail fast with usage on stderr and without printing the
// bench's header, i.e. without simulating.
void ExpectUsageError(const std::string& bench,
                      const std::vector<std::string>& args,
                      const std::string& header) {
  SCOPED_TRACE(bench);
  BenchRun run = RunBench({"run", bench, args});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.Stderr().find("usage: " + bench), std::string::npos);
  EXPECT_EQ(run.Stdout().find(header), std::string::npos);
}

TEST(BenchCli, ZeroMeasureWindowIsRejected) {
  ExpectUsageError("fig09_local_logging", {"0"}, "Figure 9");
  ExpectUsageError("fig09_local_logging", {"abc"}, "Figure 9");
  ExpectUsageError("check_campaign", {"--runs", "0"}, "conformance campaign");
  ExpectUsageError("kernel_bench", {"--events", "0"}, "ev/s");
  ExpectUsageError("obs_bench", {"--events", "0"}, "sampler off");
}

// XSSD_SIM_SCHEDULER names one of the two backends or stops the bench: a
// value it does not know must not quietly run the wheel under its name.
TEST(BenchCli, UnknownSchedulerIsRejected) {
  BenchRun run = RunBench({"run", "fig13_replication_delay", {}, "parallel"});
  EXPECT_EQ(run.exit_code, 2);
  for (const char* part : {"XSSD_SIM_SCHEDULER=parallel", "wheel", "heap"}) {
    EXPECT_NE(run.Stderr().find(part), std::string::npos) << part;
  }
}

TEST(BenchCli, UnknownFlagIsRejected) {
  ExpectUsageError("fig12_destage_priority", {"--bogus"}, "Figure 12");
  ExpectUsageError("fault_campaign", {"--plan", "flash-fail", "--sed", "2"},
                   "Fault campaign");
}

TEST(BenchCli, MissingOrUnparsableValueIsRejected) {
  ExpectUsageError("fig09_local_logging", {"20", "--metrics"}, "Figure 9");
  ExpectUsageError("ftl_campaign", {"--seed", "7x"}, "FTL steady-state");
}

}  // namespace
}  // namespace xssd::gate
