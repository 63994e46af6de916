// FaultPlan JSON schema: strict parsing, stable kind names, hard errors on
// anything a typo could silently disable.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fault/fault_plan.h"

namespace xssd::fault {
namespace {

TEST(FaultPlanTest, ParsesFullSchema) {
  Result<FaultPlan> plan = ParseFaultPlan(R"({
    "name": "ntb-flap",
    "faults": [
      {"kind": "ntb.link_down", "at_us": 200, "duration_us": 400},
      {"kind": "flash.program_fail", "probability": 0.25},
      {"kind": "pcie.store_delay", "delay_us": 3.5},
      {"kind": "crash", "site": "destage.emit_page", "after_hits": 3,
       "graceful": false}
    ]
  })");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->name, "ntb-flap");
  ASSERT_EQ(plan->faults.size(), 4u);

  const FaultSpec& flap = plan->faults[0];
  EXPECT_EQ(flap.kind, FaultKind::kNtbLinkDown);
  EXPECT_EQ(flap.at, sim::Us(200));
  EXPECT_EQ(flap.duration, sim::Us(400));
  EXPECT_EQ(flap.end(), sim::Us(600));
  EXPECT_EQ(flap.probability, 1.0);

  const FaultSpec& prog = plan->faults[1];
  EXPECT_EQ(prog.kind, FaultKind::kFlashProgramFail);
  EXPECT_EQ(prog.at, 0u);
  EXPECT_EQ(prog.duration, FaultSpec::kForever);
  EXPECT_EQ(prog.end(), FaultSpec::kForever);
  EXPECT_DOUBLE_EQ(prog.probability, 0.25);

  EXPECT_EQ(plan->faults[2].delay, sim::UsF(3.5));

  const FaultSpec& crash = plan->faults[3];
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_EQ(crash.site, "destage.emit_page");
  EXPECT_EQ(crash.after_hits, 3u);
  EXPECT_FALSE(crash.graceful);
}

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kFlashProgramFail, FaultKind::kFlashEraseFail,
        FaultKind::kFlashReadUncorrectable, FaultKind::kNtbLinkDown,
        FaultKind::kNtbLinkStall, FaultKind::kPcieStoreDelay,
        FaultKind::kPcieStoreTruncate, FaultKind::kNvmeTimeout,
        FaultKind::kCrash}) {
    Result<FaultKind> back = FaultKindFromName(FaultKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(FaultKindFromName("flash.programfail").ok());
}

TEST(FaultPlanTest, UnknownKindIsError) {
  Result<FaultPlan> plan =
      ParseFaultPlan(R"({"faults": [{"kind": "ntb.linkdown"}]})");
  EXPECT_FALSE(plan.ok());
}

TEST(FaultPlanTest, UnknownFieldIsError) {
  Result<FaultPlan> plan = ParseFaultPlan(
      R"({"faults": [{"kind": "crash", "site": "x", "at_ms": 5}]})");
  EXPECT_FALSE(plan.ok());
}

TEST(FaultPlanTest, CrashRequiresSite) {
  Result<FaultPlan> plan = ParseFaultPlan(R"({"faults": [{"kind": "crash"}]})");
  EXPECT_FALSE(plan.ok());
}

TEST(FaultPlanTest, ProbabilityMustBeInRange) {
  EXPECT_FALSE(ParseFaultPlan(R"({"faults": [{"kind": "nvme.timeout",
                                              "probability": 1.5}]})")
                   .ok());
  EXPECT_FALSE(ParseFaultPlan(R"({"faults": [{"kind": "nvme.timeout",
                                              "probability": -0.1}]})")
                   .ok());
}

TEST(FaultPlanTest, UnrepresentableNumbersAreRejected) {
  // Each would otherwise load as some other value: 2^32 + 1 hits as 1,
  // 1e17 us as 2^63 ns, and 1e999 (parsed as infinity) as no defined time.
  const std::pair<const char*, const char*> cases[] = {
      {"after_hits",
       R"({"kind": "crash", "site": "x", "after_hits": 4294967297})"},
      {"at_us", R"({"kind": "nvme.timeout", "at_us": 1e17})"},
      {"duration_us", R"({"kind": "nvme.timeout", "duration_us": 1e999})"},
  };
  for (const auto& [field, fault] : cases) {
    Result<FaultPlan> plan =
        ParseFaultPlan(std::string(R"({"faults": [)") + fault + "]}");
    ASSERT_FALSE(plan.ok()) << fault;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << fault;
    EXPECT_NE(plan.status().message().find(field), std::string::npos)
        << plan.status().ToString();
  }
}

TEST(FaultPlanTest, MalformedJsonIsError) {
  EXPECT_FALSE(ParseFaultPlan("{").ok());
  EXPECT_FALSE(ParseFaultPlan(R"({"faults": [{"kind": "crash"}]} trailing)").ok());
  EXPECT_FALSE(ParseFaultPlan(R"({"faults": "not-a-list"})").ok());
}

TEST(FaultPlanTest, EmptyPlanIsValid) {
  Result<FaultPlan> plan = ParseFaultPlan(R"({"name": "quiet"})");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanTest, MissingFileIsError) {
  EXPECT_FALSE(LoadFaultPlan("/nonexistent/plan.json").ok());
}

}  // namespace
}  // namespace xssd::fault
