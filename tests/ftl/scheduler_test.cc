#include "ftl/scheduler.h"

#include <gtest/gtest.h>

namespace xssd::ftl {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.channels = 1;  // single channel: forces bus arbitration
  g.dies_per_channel = 4;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : array_(&sim_, SmallGeometry(), flash::Timing{}, flash::Reliability{},
               1),
        scheduler_(&sim_, &array_) {}

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(4096, fill);
  }

  /// Queue a program on (die, block) recording its completion order.
  void QueueProgram(IoClass io_class, uint32_t die, uint32_t block,
                    uint32_t page, std::vector<int>* order, int tag) {
    flash::Address addr{0, die, 0, block, page};
    scheduler_.Program(io_class, addr, Page(static_cast<uint8_t>(tag)),
                       {}, [order, tag](Status status) {
                         ASSERT_TRUE(status.ok());
                         order->push_back(tag);
                       });
  }

  sim::Simulator sim_;
  flash::Array array_;
  Scheduler scheduler_;
};

TEST_F(SchedulerTest, SingleOpCompletes) {
  bool done = false;
  scheduler_.Program(IoClass::kConventional, flash::Address{0, 0, 0, 0, 0},
                     Page(1), {}, [&](Status status) {
                       EXPECT_TRUE(status.ok());
                       done = true;
                     });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(scheduler_.inflight(), 0u);
  EXPECT_EQ(scheduler_.completed_bytes(IoClass::kConventional), 4096u);
}

TEST_F(SchedulerTest, DestagePriorityServesDestageFirst) {
  scheduler_.set_policy(SchedulingPolicy::kDestagePriority);
  std::vector<int> order;
  // Enqueue conventional ops first (earlier arrival), then destage ops to
  // *different* dies. Under destage priority the destage ops must win the
  // bus even though they arrived later.
  // First occupy the bus so everything below queues up.
  QueueProgram(IoClass::kConventional, 0, 0, 0, &order, 0);
  QueueProgram(IoClass::kConventional, 1, 0, 0, &order, 1);
  QueueProgram(IoClass::kConventional, 2, 0, 0, &order, 2);
  QueueProgram(IoClass::kDestage, 3, 1, 0, &order, 100);
  sim_.Run();
  ASSERT_EQ(order.size(), 4u);
  // The destage op (tag 100) must complete before the last-queued
  // conventional ops (it jumps the bus queue after op 0 holds it).
  auto pos = [&](int tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  EXPECT_LT(pos(100), pos(2));
}

TEST_F(SchedulerTest, ConventionalPriorityMirrors) {
  scheduler_.set_policy(SchedulingPolicy::kConventionalPriority);
  std::vector<int> order;
  QueueProgram(IoClass::kDestage, 0, 1, 0, &order, 0);
  QueueProgram(IoClass::kDestage, 1, 1, 0, &order, 1);
  QueueProgram(IoClass::kDestage, 2, 1, 0, &order, 2);
  QueueProgram(IoClass::kConventional, 3, 0, 0, &order, 100);
  sim_.Run();
  auto pos = [&](int tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  EXPECT_LT(pos(100), pos(2));
}

TEST_F(SchedulerTest, NeutralIsArrivalOrderAcrossClasses) {
  scheduler_.set_policy(SchedulingPolicy::kNeutral);
  std::vector<int> order;
  QueueProgram(IoClass::kConventional, 0, 0, 0, &order, 0);
  QueueProgram(IoClass::kDestage, 1, 1, 0, &order, 1);
  QueueProgram(IoClass::kConventional, 2, 0, 0, &order, 2);
  QueueProgram(IoClass::kDestage, 3, 1, 0, &order, 3);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(SchedulerTest, OpportunisticGapFilling) {
  scheduler_.set_policy(SchedulingPolicy::kDestagePriority);
  std::vector<int> order;
  // Two destage ops to the SAME die (the second must wait for the die) and
  // one conventional op to a different die: the conventional op rides in
  // the gap while the high-priority class is die-blocked.
  QueueProgram(IoClass::kDestage, 0, 1, 0, &order, 0);
  QueueProgram(IoClass::kDestage, 0, 1, 1, &order, 1);
  QueueProgram(IoClass::kConventional, 1, 0, 0, &order, 100);
  sim_.Run();
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](int tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  EXPECT_LT(pos(100), pos(1));  // the gap was used
}

TEST_F(SchedulerTest, QueuedCountsTrack) {
  std::vector<int> order;
  QueueProgram(IoClass::kConventional, 0, 0, 0, &order, 0);
  EXPECT_EQ(scheduler_.queued(IoClass::kConventional) +
                scheduler_.inflight(),
            1u);
  sim_.Run();
  EXPECT_EQ(scheduler_.queued(IoClass::kConventional), 0u);
}

TEST_F(SchedulerTest, ReadAndEraseComplete) {
  bool programmed = false, read_ok = false, erased = false;
  flash::Address addr{0, 0, 0, 0, 0};
  scheduler_.Program(IoClass::kConventional, addr, Page(7),
                     {}, [&](Status s) { programmed = s.ok(); });
  scheduler_.Read(IoClass::kConventional, addr,
                  [&](Status s, Bytes data) {
                    read_ok = s.ok() && data[0] == 7;
                  });
  scheduler_.Erase(IoClass::kConventional, addr,
                   [&](Status s) { erased = s.ok(); });
  sim_.Run();
  EXPECT_TRUE(programmed);
  EXPECT_TRUE(read_ok);
  EXPECT_TRUE(erased);
}

TEST_F(SchedulerTest, BusOverlapsDiePrograms) {
  // Two programs to different dies on one channel: total time should be
  // roughly transfer + transfer + tPROG (overlapped), well under
  // 2 * (transfer + tPROG).
  sim::SimTime done = 0;
  scheduler_.Program(IoClass::kConventional, flash::Address{0, 0, 0, 0, 0},
                     Page(1), {}, [&](Status) { done = sim_.Now(); });
  scheduler_.Program(IoClass::kConventional, flash::Address{0, 1, 0, 0, 0},
                     Page(2), {}, [&](Status) { done = sim_.Now(); });
  sim_.Run();
  flash::Timing timing;
  sim::SimTime transfer = sim::TransferTime(4096, timing.channel_bytes_per_sec);
  EXPECT_LT(done, 2 * (transfer + timing.program_latency));
  EXPECT_GE(done, 2 * transfer + timing.program_latency);
}

}  // namespace
}  // namespace xssd::ftl
