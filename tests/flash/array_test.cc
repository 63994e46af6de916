#include "flash/array.h"

#include <gtest/gtest.h>

namespace xssd::flash {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

class ArrayTest : public ::testing::Test {
 protected:
  ArrayTest()
      : array_(&sim_, SmallGeometry(), Timing{}, Reliability{}, 1) {}

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(array_.geometry().page_bytes, fill);
  }

  Status ProgramSync(const Address& addr, Bytes data, const Oob& oob = {}) {
    Status result = Status::Internal("no callback");
    array_.Program(addr, std::move(data), oob,
                   [&](Status status) { result = status; });
    sim_.Run();
    return result;
  }

  Result<std::vector<uint8_t>> ReadSync(const Address& addr) {
    Status status = Status::Internal("no callback");
    std::vector<uint8_t> data;
    array_.Read(addr, [&](Status s, Bytes d) {
      status = s;
      data = d.ToVector();
    });
    sim_.Run();
    if (!status.ok()) return status;
    return data;
  }

  sim::Simulator sim_;
  flash::Array array_;
};

TEST_F(ArrayTest, ProgramThenReadReturnsData) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, Page(0x42)).ok());
  auto data = ReadSync(addr);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0x42);
  EXPECT_EQ((*data)[4095], 0x42);
}

TEST_F(ArrayTest, ErasedPageReadsAllOnes) {
  auto data = ReadSync(Address{1, 1, 0, 3, 7});
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0xFF);
}

TEST_F(ArrayTest, OutOfOrderProgramRejected) {
  Address addr{0, 0, 0, 0, 2};  // page 2 before 0 and 1
  Status status = ProgramSync(addr, Page(1));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ArrayTest, ProgramOverwriteWithoutEraseRejected) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, Page(1)).ok());
  // Programming page 0 again without erase violates next_page order.
  EXPECT_FALSE(ProgramSync(addr, Page(2)).ok());
}

TEST_F(ArrayTest, EraseResetsBlockForReprogram) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, Page(1)).ok());
  Status erased = Status::Internal("x");
  array_.Erase(addr, [&](Status s) { erased = s; });
  sim_.Run();
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(array_.EraseCount(addr), 1u);
  auto data = ReadSync(addr);
  EXPECT_EQ((*data)[0], 0xFF);  // erased again
  EXPECT_TRUE(ProgramSync(addr, Page(9)).ok());
}

// A block's page table lives from its first program to its erase: the
// erase lets go of every page it held, and the block then reads, peeks and
// takes OOB corruption exactly like one that was never programmed.
TEST_F(ArrayTest, EraseFreesPagesAndLeavesANeverProgrammedBlock) {
  const uint64_t slabs_before = Bytes::live_slabs();
  const uint8_t spare[] = {1, 2, 3, 4};
  Address used{0, 0, 0, 2, 0};
  for (uint32_t page = 0; page < array_.geometry().pages_per_block; ++page) {
    used.page = page;
    ASSERT_TRUE(ProgramSync(used, Page(0x5A), Oob(spare, sizeof spare)).ok());
  }
  EXPECT_EQ(Bytes::live_slabs(),
            slabs_before + array_.geometry().pages_per_block);
  Status erased = Status::Internal("x");
  array_.Erase(used, [&](Status s) { erased = s; });
  sim_.Run();
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(Bytes::live_slabs(), slabs_before);

  Address fresh{0, 1, 0, 2, 0};
  for (uint32_t page : {0u, 7u, array_.geometry().pages_per_block - 1}) {
    used.page = fresh.page = page;
    for (const Address& addr : {used, fresh}) {
      EXPECT_EQ(array_.PeekPage(addr), nullptr);
      EXPECT_EQ(array_.PeekOob(addr), nullptr);
      EXPECT_FALSE(array_.CorruptOob(addr, 0, 0xFF));
    }
    auto erased_page = ReadSync(used);
    auto fresh_page = ReadSync(fresh);
    ASSERT_TRUE(erased_page.ok());
    ASSERT_TRUE(fresh_page.ok());
    EXPECT_EQ(*erased_page, *fresh_page);
    EXPECT_EQ(*erased_page,
              std::vector<uint8_t>(array_.geometry().page_bytes, 0xFF));
  }
}

TEST_F(ArrayTest, ProgramTimingIncludesBusAndDieLatency) {
  Address addr{0, 0, 0, 0, 0};
  sim::SimTime done = 0;
  array_.Program(addr, Page(1), {}, [&](Status) { done = sim_.Now(); });
  sim_.Run();
  const Timing timing;
  // >= channel transfer (4 KiB / 250 MB/s ~ 16.4 us) + tPROG.
  EXPECT_GE(done, timing.program_latency + sim::Us(16));
}

TEST_F(ArrayTest, SameDieOperationsSerialize) {
  Address a{0, 0, 0, 0, 0};
  Address b{0, 0, 0, 1, 0};  // same die, other block
  sim::SimTime done_a = 0, done_b = 0;
  array_.Program(a, Page(1), {}, [&](Status) { done_a = sim_.Now(); });
  array_.Program(b, Page(2), {}, [&](Status) { done_b = sim_.Now(); });
  sim_.Run();
  const Timing timing;
  EXPECT_GE(done_b, done_a + timing.program_latency);
}

TEST_F(ArrayTest, DifferentChannelsOverlap) {
  Address a{0, 0, 0, 0, 0};
  Address b{1, 0, 0, 0, 0};
  sim::SimTime done_a = 0, done_b = 0;
  array_.Program(a, Page(1), {}, [&](Status) { done_a = sim_.Now(); });
  array_.Program(b, Page(2), {}, [&](Status) { done_b = sim_.Now(); });
  sim_.Run();
  const Timing timing;
  // Both finish within ~one program window of each other.
  EXPECT_LT(done_b > done_a ? done_b - done_a : done_a - done_b,
            timing.program_latency / 2);
}

TEST_F(ArrayTest, DieBusyProbes) {
  Address addr{0, 1, 0, 0, 0};
  EXPECT_TRUE(array_.DieIdle(0, 1));
  array_.Program(addr, Page(1), {}, [](Status) {});
  EXPECT_FALSE(array_.DieIdle(0, 1));
  EXPECT_GT(array_.DieBusyUntil(0, 1), sim_.Now());
  sim_.Run();
  EXPECT_TRUE(array_.DieIdle(0, 1));
}

TEST_F(ArrayTest, ShortDataIsZeroPadded) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, std::vector<uint8_t>{1, 2, 3}).ok());
  auto data = ReadSync(addr);
  EXPECT_EQ((*data)[0], 1);
  EXPECT_EQ((*data)[3], 0);
}

TEST_F(ArrayTest, StatsCountOperations) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, Page(1)).ok());
  ReadSync(addr);
  EXPECT_EQ(array_.stats().programs, 1u);
  EXPECT_EQ(array_.stats().reads, 1u);
}

TEST_F(ArrayTest, PeekPage) {
  Address addr{0, 0, 0, 0, 0};
  EXPECT_EQ(array_.PeekPage(addr), nullptr);
  ASSERT_TRUE(ProgramSync(addr, Page(0x33)).ok());
  const Bytes* page = array_.PeekPage(addr);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ((*page)[0], 0x33);
}

TEST_F(ArrayTest, MaxProgramBandwidthTakesTheTighterBound) {
  // Small geometry: 4 dies x 4 KiB / 250 us ≈ 65.5 MB/s die-bound, below
  // the 500 MB/s bus bound.
  EXPECT_NEAR(array_.MaxProgramBandwidth(), 65.5e6, 1e6);
  // Default (paper) geometry is bus-bound at 2 GB/s.
  sim::Simulator sim;
  Array big(&sim, Geometry{}, Timing{}, Reliability{}, 1);
  EXPECT_NEAR(big.MaxProgramBandwidth(), 2e9, 1e7);
}

TEST(ArrayReliability, FactoryBadBlocksRejectPrograms) {
  sim::Simulator sim;
  Reliability reliability;
  reliability.factory_bad_block_rate = 1.0;  // every block bad
  Array array(&sim, SmallGeometry(), Timing{}, reliability, 7);
  Status status = Status::OK();
  array.Program(Address{0, 0, 0, 0, 0}, std::vector<uint8_t>{1, 2, 3}, {},
                [&](Status s) { status = s; });
  sim.Run();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_TRUE(array.IsBadBlock(Address{0, 0, 0, 0, 0}));
}

TEST(ArrayReliability, ProgramFailureGrowsBadBlock) {
  sim::Simulator sim;
  Reliability reliability;
  reliability.program_fail_rate = 1.0;
  Array array(&sim, SmallGeometry(), Timing{}, reliability, 7);
  Status status = Status::OK();
  Address addr{0, 0, 0, 0, 0};
  array.Program(addr, std::vector<uint8_t>{1}, {},
                [&](Status s) { status = s; });
  sim.Run();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_TRUE(array.IsBadBlock(addr));
  EXPECT_EQ(array.stats().program_failures, 1u);
}

TEST(ArrayReliability, UncorrectableErrorsSurfaceAsCorruption) {
  sim::Simulator sim;
  Reliability reliability;
  reliability.raw_bit_error_rate = 0.05;   // ~1600 errors/page
  reliability.ecc_correctable_bits = 10;
  Array array(&sim, SmallGeometry(), Timing{}, reliability, 7);
  Address addr{0, 0, 0, 0, 0};
  array.Program(addr, std::vector<uint8_t>(4096, 0xAA), {}, [](Status) {});
  sim.Run();
  Status status = Status::OK();
  array.Read(addr, [&](Status s, Bytes) { status = s; });
  sim.Run();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_GE(array.stats().uncorrectable_reads, 1u);
}

TEST(ArrayReliability, CorrectableErrorsAreTransparent) {
  sim::Simulator sim;
  Reliability reliability;
  reliability.raw_bit_error_rate = 1e-6;  // ~0.03 errors/page
  reliability.ecc_correctable_bits = 72;
  Array array(&sim, SmallGeometry(), Timing{}, reliability, 7);
  Address addr{0, 0, 0, 0, 0};
  array.Program(addr, std::vector<uint8_t>(4096, 0xAA), {}, [](Status) {});
  sim.Run();
  for (int i = 0; i < 50; ++i) {
    Status status = Status::Internal("x");
    Bytes data;
    array.Read(addr, [&](Status s, Bytes d) {
      status = s;
      data = std::move(d);
    });
    sim.Run();
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(data[100], 0xAA);
  }
}

}  // namespace
}  // namespace xssd::flash
