// Media-reliability model tests: retention-dwell and read-disturb BER
// growth, the PredictedBer scrub signal, the read-retry ladder, the
// CorruptOob test hook, and the flash.retention / flash.disturb fault
// kinds riding the same decay paths.

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "flash/array.h"

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

class ReliabilityTest : public ::testing::Test {
 protected:
  explicit ReliabilityTest(Reliability reliability = {})
      : array_(&sim_, SmallGeometry(), Timing{}, reliability, 7) {}

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(array_.geometry().page_bytes, fill);
  }

  Status ProgramSync(const Address& addr, uint8_t fill,
                     std::vector<uint8_t> oob = {}) {
    bool fired = false;
    Status result = Status::Internal("no callback");
    array_.Program(addr, Page(fill), std::move(oob), [&](Status status) {
      result = status;
      fired = true;
    });
    sim_.RunWhile([&]() { return fired; });
    return result;
  }

  Status ReadSync(const Address& addr) {
    bool fired = false;
    Status status = Status::Internal("no callback");
    array_.Read(addr, [&](Status s, std::vector<uint8_t>) {
      status = s;
      fired = true;
    });
    sim_.RunWhile([&]() { return fired; });
    return status;
  }

  Status EraseSync(const Address& addr) {
    bool fired = false;
    Status status = Status::Internal("no callback");
    array_.Erase(addr, [&](Status s) {
      status = s;
      fired = true;
    });
    sim_.RunWhile([&]() { return fired; });
    return status;
  }

  sim::Simulator sim_;
  Array array_;
};

// -- Decay model ------------------------------------------------------------

class DecayTest : public ReliabilityTest {
 protected:
  static Reliability DecayModel() {
    Reliability r;
    r.raw_bit_error_rate = 1e-6;
    r.ber_per_retention_sec = 1e-5;
    r.ber_per_read_disturb = 1e-7;
    r.ecc_correctable_bits = 24;
    return r;
  }
  DecayTest() : ReliabilityTest(DecayModel()) {}
};

TEST_F(DecayTest, PredictedBerGrowsWithRetentionDwell) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, 0x11).ok());
  double fresh = array_.PredictedBer(addr);
  sim_.RunFor(sim::Sec(2));
  double aged = array_.PredictedBer(addr);
  EXPECT_GT(aged, fresh);
  // Dwell is charged linearly: ~2 s at 1e-5/s on top of the fresh value.
  EXPECT_NEAR(aged - fresh, 2e-5, 1e-6);
}

TEST_F(DecayTest, DwellEpochStartsAtFirstProgramSinceErase) {
  Address first{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(first, 0x22).ok());
  sim::SimTime epoch = array_.ProgrammedAt(first);
  sim_.RunFor(sim::Sec(1));
  // A later program in the same block does not restart the block's clock.
  Address second{0, 0, 0, 0, 1};
  ASSERT_TRUE(ProgramSync(second, 0x33).ok());
  EXPECT_EQ(array_.ProgrammedAt(second), epoch);
}

TEST_F(DecayTest, PredictedBerGrowsWithReadDisturbAndEraseResetsBoth) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, 0x44).ok());
  double fresh = array_.PredictedBer(addr);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ReadSync(addr).ok());
  }
  EXPECT_EQ(array_.ReadsSinceErase(addr), 50u);
  EXPECT_GT(array_.PredictedBer(addr), fresh);

  ASSERT_TRUE(EraseSync(addr).ok());
  EXPECT_EQ(array_.ReadsSinceErase(addr), 0u);
  // Erase resets dwell and disturb; only the (here zero-weight) wear term
  // could keep the prediction above the raw floor.
  EXPECT_DOUBLE_EQ(array_.PredictedBer(addr),
                   array_.reliability().raw_bit_error_rate);
}

// -- Read-retry ladder ------------------------------------------------------

class RetryRescueTest : public ReliabilityTest {
 protected:
  static Reliability Marginal() {
    Reliability r;
    // ~39 mean bit errors per 4 KiB page against a 24-bit budget: the
    // first sense fails, the first shifted re-sense (x0.5) lands at ~20
    // and corrects.
    r.raw_bit_error_rate = 1.2e-3;
    r.ecc_correctable_bits = 24;
    r.read_retry_levels = 4;
    r.retry_ber_factor = 0.5;
    return r;
  }
  RetryRescueTest() : ReliabilityTest(Marginal()) {}
};

TEST_F(RetryRescueTest, LadderRescuesMarginalPage) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, 0x55).ok());
  EXPECT_TRUE(ReadSync(addr).ok());
  EXPECT_GE(array_.stats().read_retries, 1u);
  EXPECT_EQ(array_.stats().retry_exhausted, 0u);
  EXPECT_EQ(array_.stats().uncorrectable_reads, 0u);
  EXPECT_GT(array_.stats().corrected_bit_errors, 0u);
}

TEST_F(RetryRescueTest, RetriesChargeExtraSenseTime) {
  Address a{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(a, 0x66).ok());
  sim::SimTime start = sim_.Now();
  ASSERT_TRUE(ReadSync(a).ok());
  uint64_t retries = array_.stats().read_retries;
  ASSERT_GE(retries, 1u);
  // Each ladder level re-senses the cell array: >= one extra tR per retry.
  EXPECT_GE(sim_.Now() - start,
            array_.timing().read_latency * (1 + retries));
}

class RetryExhaustTest : public ReliabilityTest {
 protected:
  static Reliability Severe() {
    Reliability r;
    // ~327 mean errors; even the deepest re-sense (x0.25) stays ~80 over
    // a 24-bit budget, so the ladder must exhaust.
    r.raw_bit_error_rate = 1e-2;
    r.ecc_correctable_bits = 24;
    r.read_retry_levels = 2;
    r.retry_ber_factor = 0.5;
    return r;
  }
  RetryExhaustTest() : ReliabilityTest(Severe()) {}
};

TEST_F(RetryExhaustTest, LadderExhaustsOnSevereDecay) {
  Address addr{0, 0, 0, 0, 0};
  ASSERT_TRUE(ProgramSync(addr, 0x77).ok());
  Status status = ReadSync(addr);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(array_.stats().read_retries, 2u);  // both levels spent
  EXPECT_EQ(array_.stats().retry_exhausted, 1u);
  EXPECT_EQ(array_.stats().uncorrectable_reads, 1u);
}

// -- OOB corruption hook ----------------------------------------------------

TEST_F(ReliabilityTest, CorruptOobFlipsStoredByteAndSkipsErasedPages) {
  Address addr{0, 0, 0, 0, 0};
  std::vector<uint8_t> oob(16, 0xA0);
  ASSERT_TRUE(ProgramSync(addr, 0x10, oob).ok());
  ASSERT_NE(array_.PeekOob(addr), nullptr);
  EXPECT_TRUE(array_.CorruptOob(addr, 3, 0x40));
  EXPECT_EQ((*array_.PeekOob(addr))[3], 0xA0 ^ 0x40);
  // Index wraps modulo the record length.
  EXPECT_TRUE(array_.CorruptOob(addr, 16, 0x01));
  EXPECT_EQ((*array_.PeekOob(addr))[0], 0xA0 ^ 0x01);
  // Erased page: nothing to corrupt.
  EXPECT_FALSE(array_.CorruptOob(Address{0, 0, 0, 1, 0}, 0, 0xFF));
}

// -- Injected decay (flash.retention / flash.disturb fault kinds) -----------

TEST(ReliabilityFaults, RetentionFaultInjectsDwell) {
  Reliability r;
  r.ber_per_retention_sec = 1e-3;
  r.ecc_correctable_bits = 24;
  r.read_retry_levels = 0;
  sim::Simulator sim;
  Array array(&sim, SmallGeometry(), Timing{}, r, 7);

  Address addr{0, 0, 0, 0, 0};
  Status programmed = Status::Internal("pending");
  array.Program(addr, std::vector<uint8_t>(4096, 0x42),
                {}, [&](Status s) { programmed = s; });
  sim.Run();
  ASSERT_TRUE(programmed.ok());

  auto read = [&]() {
    bool fired = false;
    Status status = Status::Internal("pending");
    array.Read(addr, [&](Status s, std::vector<uint8_t>) {
      status = s;
      fired = true;
    });
    sim.RunWhile([&]() { return fired; });
    return status;
  };
  // Organic dwell is microseconds — reads are clean.
  EXPECT_TRUE(read().ok());

  // 100 s of injected dwell pushes the effective BER to ~0.1: far past
  // the budget, indistinguishable from a block that sat cold that long.
  fault::FaultPlan plan =
      fault::FaultPlanBuilder("retention")
          .Window(fault::FaultKind::kFlashRetention, sim.Now(),
                  fault::FaultSpec::kForever, 1.0, sim::Sec(100))
          .Build();
  fault::FaultInjector injector(&sim, plan, 7);
  array.set_fault_injector(&injector);
  EXPECT_TRUE(read().IsCorruption());
  // The prediction stays pure: no fault terms leak into the scrub signal.
  EXPECT_LT(array.PredictedBer(addr), 1e-4);
}

TEST(ReliabilityFaults, DisturbFaultInjectsReads) {
  Reliability r;
  r.ber_per_read_disturb = 1e-4;
  r.ecc_correctable_bits = 24;
  r.read_retry_levels = 0;
  sim::Simulator sim;
  Array array(&sim, SmallGeometry(), Timing{}, r, 7);

  Address addr{0, 0, 0, 0, 0};
  Status programmed = Status::Internal("pending");
  array.Program(addr, std::vector<uint8_t>(4096, 0x43),
                {}, [&](Status s) { programmed = s; });
  sim.Run();
  ASSERT_TRUE(programmed.ok());

  auto read = [&]() {
    bool fired = false;
    Status status = Status::Internal("pending");
    array.Read(addr, [&](Status s, std::vector<uint8_t>) {
      status = s;
      fired = true;
    });
    sim.RunWhile([&]() { return fired; });
    return status;
  };
  EXPECT_TRUE(read().ok());

  fault::FaultPlan plan =
      fault::FaultPlanBuilder("disturb")
          .Window(fault::FaultKind::kFlashDisturb, sim.Now(),
                  fault::FaultSpec::kForever, 1.0, 0, /*magnitude=*/1000.0)
          .Build();
  fault::FaultInjector injector(&sim, plan, 7);
  array.set_fault_injector(&injector);
  EXPECT_TRUE(read().IsCorruption());
}

}  // namespace
}  // namespace xssd::flash
