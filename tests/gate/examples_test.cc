// Every program under examples/ runs to completion: exit 0 with bounded
// stderr (Succeeded), like every bench a gate launches.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

TEST(ExamplesGate, EveryExampleRunsToCompletion) {
  std::vector<BenchSpec> specs;
  for (const char* example :
       {"quickstart", "tpcc_logging", "log_shipping", "crash_recovery",
        "journal_service", "multi_tenant", "percolator_notify"}) {
    BenchSpec spec{example, example, {}};
    spec.example = true;
    specs.push_back(spec);
  }
  for (const BenchRun& run : RunBenches(specs)) {
    EXPECT_TRUE(Succeeded(run));
  }
}

}  // namespace
}  // namespace xssd::gate
