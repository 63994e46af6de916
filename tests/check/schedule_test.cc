// Tests for the schedule fuzzer: generation determinism, the text
// round-trip used for counterexample replay, payload stability under
// shrinking, and fault-plan compilation.

#include "check/schedule.h"

#include <gtest/gtest.h>

#include <string>

namespace xssd::check {
namespace {

bool SameSchedule(const Schedule& a, const Schedule& b) {
  if (a.seed != b.seed || a.protocol != b.protocol ||
      a.secondaries != b.secondaries || a.ops.size() != b.ops.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const Op& x = a.ops[i];
    const Op& y = b.ops[i];
    if (x.kind != y.kind || x.len != y.len || x.fault != y.fault ||
        x.at_us != y.at_us || x.duration_us != y.duration_us ||
        x.probability != y.probability || x.delay_us != y.delay_us ||
        x.site != y.site || x.after_hits != y.after_hits ||
        x.graceful != y.graceful) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, GenerationIsDeterministic) {
  for (uint64_t seed : {1ull, 17ull, 987654321ull}) {
    Schedule a = GenerateSchedule(seed, 40);
    Schedule b = GenerateSchedule(seed, 40);
    EXPECT_TRUE(SameSchedule(a, b)) << "seed " << seed;
  }
}

TEST(Schedule, DistinctSeedsProduceDistinctSchedules) {
  Schedule a = GenerateSchedule(1, 40);
  Schedule b = GenerateSchedule(2, 40);
  EXPECT_FALSE(SameSchedule(a, b));
}

TEST(Schedule, GeneratedOpsStayNearTarget) {
  Schedule s = GenerateSchedule(5, 40);
  EXPECT_GE(s.ops.size(), 10u);
  EXPECT_LE(s.ops.size(), 60u);
  EXPECT_GT(s.TotalAppendBytes(), 0u);
  EXPECT_LE(s.secondaries, 2u);
}

TEST(Schedule, AtMostOneCrashPerSchedule) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Schedule s = GenerateSchedule(seed, 40);
    size_t crashes = 0;
    for (const Op& op : s.ops) {
      if (op.kind == Op::Kind::kCrash) ++crashes;
    }
    EXPECT_LE(crashes, 1u) << "seed " << seed;
    EXPECT_EQ(s.HasCrash(), crashes == 1) << "seed " << seed;
  }
}

TEST(Schedule, FailoverOnlyInThreeMemberClustersAndExclusiveWithCrash) {
  size_t with_failover = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Schedule s = GenerateSchedule(seed, 40);
    size_t failovers = 0;
    for (const Op& op : s.ops) {
      if (op.kind == Op::Kind::kFailover) ++failovers;
    }
    EXPECT_LE(failovers, 1u) << "seed " << seed;
    if (failovers > 0) {
      ++with_failover;
      // Failover needs a live majority after the primary dies, and never
      // rides with a crash clause (both kill the primary).
      EXPECT_EQ(s.secondaries, 2u) << "seed " << seed;
      EXPECT_FALSE(s.HasCrash()) << "seed " << seed;
    }
  }
  EXPECT_GT(with_failover, 0u) << "generator never emits failover";
}

TEST(Schedule, FailoverDirectiveRoundTrips) {
  Result<Schedule> parsed = ScheduleFromText(
      "seed 3\nprotocol chain\nsecondaries 2\nappend 128\nfailover\nfsync\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->ops.size(), 3u);
  EXPECT_EQ(parsed->ops[1].kind, Op::Kind::kFailover);
  EXPECT_TRUE(parsed->HasFailover());
  EXPECT_EQ(ToText(*parsed), ToText(*ScheduleFromText(ToText(*parsed))));
}

TEST(Schedule, TextRoundTripIsExact) {
  for (uint64_t seed : {1ull, 17ull, 23ull, 42ull}) {
    Schedule original = GenerateSchedule(seed, 40);
    Result<Schedule> parsed = ScheduleFromText(ToText(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(SameSchedule(original, *parsed)) << "seed " << seed;
    // And the round-trip is a fixed point: re-serializing is identical.
    EXPECT_EQ(ToText(original), ToText(*parsed)) << "seed " << seed;
  }
}

TEST(Schedule, ParseRejectsUnknownDirectives) {
  EXPECT_FALSE(ScheduleFromText("seed 1\nfrobnicate 7\n").ok());
  EXPECT_FALSE(ScheduleFromText("seed 1\nfault not_a_kind at_us 0 "
                                "duration_us 1 probability 1 delay_us 0\n")
                   .ok());
  EXPECT_FALSE(ScheduleFromText("protocol carrier-pigeon\n").ok());
}

// Numbers the runner cannot use fail the parse with the line they are on;
// these schedules are parsed only, never run.
TEST(Schedule, ParseRejectsNumbersTheRunnerCannotUse) {
  for (const char* text : {
           // Wrapped to 4294967295 by `istream >>`, then wired until killed.
           "seed 1\nsecondaries -1\n",
           // One more than the harness has NTB peer slots for.
           "seed 1\nsecondaries 9\n",
           // The failover supervisor has heartbeat windows for 3.
           "seed 1\nsecondaries 4\nfailover\n",
           "seed 1\nappend -1\n",
           "# the seed wraps too\nseed -1\n",
           "seed 1\ncrash cmb.persist after_hits 0 graceful 1\n",
           "seed 1\ncrash cmb.persist after_hits 4294967296 graceful 1\n",
           "seed 1\ncrash cmb.persist after_hits 1 graceful 2\n",
           "seed 1\nfault flash.program_fail at_us -5 duration_us 1 "
           "probability 1 delay_us 0\n",
           "seed 1\nfault flash.program_fail at_us 0 duration_us "
           "9223372036854776 probability 1 delay_us 0\n",
           "seed 1\nfault flash.program_fail at_us 0 duration_us 1 "
           "probability 1.5 delay_us 0\n",
       }) {
    Result<Schedule> parsed = ScheduleFromText(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status().ToString();
  }
  // The largest values the runner can use still parse.
  EXPECT_TRUE(ScheduleFromText("secondaries 8\n").ok());
  EXPECT_TRUE(ScheduleFromText("secondaries 3\nfailover\n").ok());
  EXPECT_TRUE(ScheduleFromText("crash cmb.persist after_hits 4294967295\n")
                  .ok());
  EXPECT_TRUE(ScheduleFromText("fault flash.program_fail at_us "
                               "9223372036854775\n")
                  .ok());
}

TEST(Schedule, ParseAcceptsHandWrittenTrace) {
  Result<Schedule> parsed = ScheduleFromText(
      "# comment\n"
      "seed 7\n"
      "protocol chain\n"
      "secondaries 2\n"
      "append 4096\n"
      "fsync\n"
      "read 128\n"
      "crash cmb.persist after_hits 2 graceful 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->protocol, core::ReplicationProtocol::kChain);
  EXPECT_EQ(parsed->secondaries, 2u);
  ASSERT_EQ(parsed->ops.size(), 4u);
  EXPECT_EQ(parsed->ops[3].kind, Op::Kind::kCrash);
  EXPECT_EQ(parsed->ops[3].site, "cmb.persist");
  EXPECT_EQ(parsed->ops[3].after_hits, 2u);
  EXPECT_FALSE(parsed->ops[3].graceful);
}

TEST(Schedule, PayloadBytesKeyedOnAbsoluteOffset) {
  // The byte at offset 1000 must not depend on how the appends before it
  // were sliced — that is what keeps shrunk schedules comparable.
  EXPECT_EQ(PayloadByte(7, 1000), PayloadByte(7, 1000));
  EXPECT_NE(PayloadByte(7, 1000), PayloadByte(8, 1000));
  int distinct = 0;
  for (uint64_t off = 0; off < 256; ++off) {
    if (PayloadByte(7, off) != PayloadByte(7, off + 1)) ++distinct;
  }
  EXPECT_GT(distinct, 200);  // not a constant or trivially periodic
}

TEST(Schedule, CompileFaultPlanCarriesClauses) {
  Result<Schedule> parsed = ScheduleFromText(
      "seed 3\n"
      "fault flash.program_fail at_us 100 duration_us 50 probability 0.5 "
      "delay_us 0\n"
      "crash destage.emit_page after_hits 3 graceful 1\n"
      "append 64\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  fault::FaultPlan plan = parsed->CompileFaultPlan("test");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].kind, fault::FaultKind::kFlashProgramFail);
  EXPECT_EQ(plan.faults[0].probability, 0.5);
  EXPECT_EQ(plan.faults[1].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.faults[1].site, "destage.emit_page");
  EXPECT_EQ(plan.faults[1].after_hits, 3u);
  EXPECT_TRUE(plan.faults[1].graceful);
}

}  // namespace
}  // namespace xssd::check
