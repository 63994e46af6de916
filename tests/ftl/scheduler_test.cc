#include "ftl/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ios>
#include <vector>

#include "sim/random.h"

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

TEST_F(SchedulerTest, BusyDieHoldsBackNoLaterOpAndEarliestIdleGoesFirst) {
  std::vector<int> order;
  // Op 0 takes the bus, then die 0 for tPROG. Op 1 waits for die 0; ops 2
  // and 3 arrive after it for idle dies 3 and 1. Each bus release must pass
  // over op 1 and take the earliest arrival among the idle dies: op 2 on
  // die 3 before op 3 on die 1.
  QueueProgram(IoClass::kConventional, 0, 0, 0, &order, 0);
  QueueProgram(IoClass::kConventional, 0, 0, 1, &order, 1);
  QueueProgram(IoClass::kConventional, 3, 0, 0, &order, 2);
  QueueProgram(IoClass::kConventional, 1, 0, 0, &order, 3);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
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

/// FNV-1a over each completion's op id and time, in completion order, for
/// a seeded mix on 2 channels x 4 dies with random classes and arrival
/// gaps: programs in page order within each block, reads of programmed
/// pages, and erases. Each block keeps one class, so its programs and its
/// erases share a FIFO and reach the die in the order they were made.
uint64_t IssueOrderHash(SchedulingPolicy policy) {
  flash::Geometry g;
  g.channels = 2;
  g.dies_per_channel = 4;
  g.blocks_per_plane = 4;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  sim::Simulator sim;
  flash::Array array(&sim, g, flash::Timing{}, flash::Reliability{}, 7);
  Scheduler scheduler(&sim, &array, policy);
  sim::Rng rng(2027);
  const uint64_t blocks = g.blocks();
  std::vector<IoClass> block_class(blocks);
  std::vector<uint32_t> programmed(blocks, 0);
  for (IoClass& c : block_class) {
    c = rng.Bernoulli(0.5) ? IoClass::kDestage : IoClass::kConventional;
  }
  uint64_t hash = 0xCBF29CE484222325ull;
  auto mix = [&hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  };
  auto completed = [&sim, &mix](uint64_t id) {
    mix(id);
    mix(sim.Now());
  };
  sim::SimTime arrival = 0;
  for (uint64_t id = 0; id < 3000; ++id) {
    arrival += rng.Uniform(sim::Us(90));
    const uint64_t block = rng.Uniform(blocks);
    const uint64_t draw = rng.Uniform(20);
    const IoClass read_class =
        rng.Bernoulli(0.5) ? IoClass::kDestage : IoClass::kConventional;
    // 9 in 20 programs, 10 reads, 1 erase; an empty block takes a program
    // instead of a read, a full one an erase instead of a program.
    enum { kProgram, kRead, kErase } kind =
        draw < 9 ? kProgram : draw < 19 ? kRead : kErase;
    if (kind == kRead && programmed[block] == 0) kind = kProgram;
    if (kind == kProgram && programmed[block] == g.pages_per_block) {
      kind = kErase;
    }
    std::function<void()> submit;
    if (kind == kProgram) {
      flash::Address addr = flash::AddressOfBlock(g, block);
      addr.page = programmed[block]++;
      submit = [&scheduler, &completed, io_class = block_class[block], addr,
                id] {
        scheduler.Program(io_class, addr, Bytes(), {},
                          [&completed, id](Status) { completed(id); });
      };
    } else if (kind == kRead) {
      const flash::Address addr = flash::AddressOfPage(
          g, block * g.pages_per_block + rng.Uniform(programmed[block]));
      submit = [&scheduler, &completed, read_class, addr, id] {
        scheduler.Read(read_class, addr,
                       [&completed, id](Status, Bytes) { completed(id); });
      };
    } else {
      programmed[block] = 0;
      submit = [&scheduler, &completed, io_class = block_class[block],
                addr = flash::AddressOfBlock(g, block), id] {
        scheduler.Erase(io_class, addr,
                        [&completed, id](Status) { completed(id); });
      };
    }
    sim.ScheduleAt(arrival, std::move(submit));
  }
  sim.Run();
  EXPECT_EQ(scheduler.inflight(), 0u);
  return hash;
}

TEST(SchedulerPin, IssueOrderOfASeededMixIsPinned) {
  // Recorded with the front-to-back queue scan the per-die FIFOs replaced.
  // A change that means to reorder flash ops edits these by hand and says
  // why.
  const struct {
    SchedulingPolicy policy;
    uint64_t want;
  } kPins[] = {
      {SchedulingPolicy::kNeutral, 0x6ACFC72BC473501Full},
      {SchedulingPolicy::kDestagePriority, 0x0435EAE3AD1C0A55ull},
      {SchedulingPolicy::kConventionalPriority, 0xFAF7E590DBCD0B92ull},
  };
  for (const auto& pin : kPins) {
    const uint64_t got = IssueOrderHash(pin.policy);
    EXPECT_EQ(got, pin.want)
        << SchedulingPolicyName(pin.policy) << ": issue order hash is now 0x"
        << std::hex << got;
  }
}

}  // namespace
}  // namespace xssd::ftl
