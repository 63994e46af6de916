#include "core/destage_module.h"

#include <gtest/gtest.h>

#include "core/cmb_module.h"
#include "flash/array.h"
#include "ftl/ftl.h"

namespace xssd::core {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 16;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

class DestageTest : public ::testing::Test {
 protected:
  DestageTest()
      : array_(&sim_, SmallGeometry(), flash::Timing{}, flash::Reliability{},
               1),
        ftl_(&sim_, &array_, ftl::FtlConfig{}),
        cmb_(&sim_, CmbTestConfig()),
        destage_(&sim_, &ftl_, &cmb_, DestageTestConfig(), /*epoch=*/1) {
    cmb_.SetCreditHook(
        [this](uint64_t credit) { destage_.OnCreditAdvance(credit); });
  }

  static CmbConfig CmbTestConfig() {
    CmbConfig config;
    config.ring_bytes = 64 * 1024;
    config.queue_bytes = 8 * 1024;
    return config;
  }
  static DestageConfig DestageTestConfig() {
    DestageConfig config;
    config.ring_start_lba = 0;
    config.ring_lba_count = 16;
    config.latency_threshold = sim::Us(100);
    return config;
  }

  uint32_t Capacity() { return DestagePayloadCapacity(4096); }

  void WriteStream(uint64_t offset, size_t len, uint8_t fill) {
    // Split on ring wrap, as the host-side store path does.
    Bytes data(std::vector<uint8_t>(len, fill));
    uint64_t ring_offset = offset % cmb_.ring_bytes();
    size_t first = static_cast<size_t>(
        std::min<uint64_t>(len, cmb_.ring_bytes() - ring_offset));
    cmb_.OnRingWrite(ring_offset, data.Slice(0, first));
    if (first < len) cmb_.OnRingWrite(0, data.Slice(first, len - first));
  }

  Result<ParsedDestagePage> ReadRingSlot(uint64_t slot) {
    Status status = Status::Internal("pending");
    std::vector<uint8_t> page;
    ftl_.ReadPage(ftl::IoClass::kConventional, slot,
                  [&](Status s, std::vector<uint8_t> d) {
                    status = s;
                    page = std::move(d);
                  });
    sim_.Run();
    if (!status.ok()) return status;
    return ParseDestagePage(page);
  }

  sim::Simulator sim_;
  flash::Array array_;
  ftl::Ftl ftl_;
  CmbModule cmb_;
  DestageModule destage_;
};

TEST_F(DestageTest, FullPageDestagesImmediately) {
  WriteStream(0, Capacity(), 0xAA);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), Capacity());
  EXPECT_EQ(destage_.stats().pages_written, 1u);
  EXPECT_EQ(destage_.stats().partial_pages, 0u);

  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->header.sequence, 0u);
  EXPECT_EQ(page->header.stream_offset, 0u);
  EXPECT_EQ(page->header.epoch, 1u);
  EXPECT_EQ(page->data.size(), Capacity());
  EXPECT_EQ(page->data[0], 0xAA);
}

TEST_F(DestageTest, PartialPageWaitsForLatencyThreshold) {
  WriteStream(0, 100, 0xBB);
  sim_.RunFor(sim::Us(50));
  EXPECT_EQ(destage_.destaged(), 0u);  // below threshold, waiting
  sim_.Run();  // threshold timer fires, partial destage with filler
  EXPECT_EQ(destage_.destaged(), 100u);
  EXPECT_EQ(destage_.stats().partial_pages, 1u);
  EXPECT_EQ(destage_.stats().filler_bytes, Capacity() - 100u);

  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.data_len, 100u);
}

TEST_F(DestageTest, StreamSplitsAcrossPagesInOrder) {
  const size_t total = 3 * Capacity() + 500;
  WriteStream(0, Capacity(), 1);
  WriteStream(Capacity(), Capacity(), 2);
  WriteStream(2 * Capacity(), Capacity(), 3);
  WriteStream(3 * Capacity(), 500, 4);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), total);
  EXPECT_EQ(destage_.stats().pages_written, 4u);
  // Page sequences carry chained stream offsets.
  uint64_t expected_offset = 0;
  for (uint64_t seq = 0; seq < 4; ++seq) {
    Result<ParsedDestagePage> page = ReadRingSlot(seq);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->header.sequence, seq);
    EXPECT_EQ(page->header.stream_offset, expected_offset);
    expected_offset += page->header.data_len;
  }
  EXPECT_EQ(expected_offset, total);
}

TEST_F(DestageTest, DestagedFloorPropagatedToCmb) {
  WriteStream(0, Capacity(), 5);
  sim_.Run();
  EXPECT_EQ(cmb_.destaged_floor(), Capacity());
}

TEST_F(DestageTest, BarrierWithholdsDestaging) {
  destage_.SetBarrier(50);
  WriteStream(0, Capacity(), 6);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), 50u);  // only below the barrier
  destage_.SetBarrier(~0ull);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), Capacity());
}

TEST_F(DestageTest, RingWrapsOverLbaRange) {
  // 16-slot ring; destage 20 pages worth.
  for (int i = 0; i < 20; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.next_sequence(), 20u);
  // Slot 0 now holds sequence 16 (overwritten on wrap).
  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.sequence, 16u);
  // Slot 4 still holds sequence 4 from the first lap.
  page = ReadRingSlot(4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.sequence, 4u);
}

TEST_F(DestageTest, RingWrapTrimsSupersededSlotsBeforeReuse) {
  // First lap: 16 slots, no reuse, no trims.
  for (int i = 0; i < 16; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.stats().ring_trims, 0u);
  EXPECT_EQ(ftl_.page_map().mapped_pages(), 16u);

  // Second lap: each reused slot is TRIMmed before its rewrite, handing
  // the stale copy back to GC as immediate garbage instead of leaving it
  // valid until the overwrite's map update.
  for (int i = 16; i < 20; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
    sim_.Run();
  }
  EXPECT_EQ(destage_.stats().ring_trims, 4u);
  // The ring never holds more than ring_lba_count mapped pages, and the
  // wrapped slots read back as their newest lap.
  EXPECT_EQ(ftl_.page_map().mapped_pages(), 16u);
  for (uint64_t slot = 0; slot < 4; ++slot) {
    Result<ParsedDestagePage> page = ReadRingSlot(slot);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->header.sequence, 16u + slot);
  }
}

TEST_F(DestageTest, PowerLossDestagesEverythingPersisted) {
  WriteStream(0, 1000, 0xCC);
  sim_.Run();  // persisted but below a page: destage pending on threshold
  WriteStream(1000, 500, 0xDD);
  // Don't run: the second chunk is still in the staging queue.
  destage_.set_frozen(true);
  cmb_.DrainStagingForPowerLoss();
  bool done = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/16, [&]() { done = true; });
  sim_.RunWhile([&]() { return done; });
  EXPECT_EQ(destage_.destaged(), 1500u);
}

TEST_F(DestageTest, PowerLossRespectsEnergyBudget) {
  // 10 pages persisted, budget for 2.
  destage_.set_frozen(true);
  for (int i = 0; i < 10; ++i) {
    WriteStream(static_cast<uint64_t>(i) * Capacity(), Capacity(),
                static_cast<uint8_t>(i));
  }
  cmb_.DrainStagingForPowerLoss();
  uint64_t already = destage_.stats().pages_written;
  bool done = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/2, [&]() { done = true; });
  sim_.RunWhile([&]() { return done; });
  EXPECT_LE(destage_.stats().pages_written - already, 2u + 1);
}

TEST_F(DestageTest, ResetMatchesAFreshModule) {
  obs::MetricsRegistry registry;
  destage_.SetMetrics(&registry);
  // Dirty every piece of state: a barrier, pages in flight, a partial page
  // on the latency timer, and a power-loss destage mid-poll with the
  // threshold and barrier lifted.
  destage_.SetBarrier(3 * Capacity());
  WriteStream(0, 2 * Capacity() + 100, 0x11);
  sim_.RunFor(sim::Us(5));
  destage_.set_frozen(true);
  bool drained = false;
  destage_.DestageAllForPowerLoss(/*page_budget=*/16,
                                  [&]() { drained = true; });
  ASSERT_GT(destage_.destage_cursor(), destage_.destaged());

  cmb_.ResetForReboot();
  destage_.Reset(/*epoch=*/2);
  DestageModule fresh(&sim_, &ftl_, &cmb_, DestageTestConfig(), 2);
  auto expect_fresh = [&]() {
    EXPECT_EQ(destage_.epoch(), fresh.epoch());
    EXPECT_EQ(destage_.destaged(), fresh.destaged());
    EXPECT_EQ(destage_.destage_cursor(), fresh.destage_cursor());
    EXPECT_EQ(destage_.next_sequence(), fresh.next_sequence());
    EXPECT_EQ(destage_.barrier(), fresh.barrier());
    EXPECT_EQ(destage_.stats().pages_written, 0u);
    EXPECT_EQ(destage_.stats().partial_pages, 0u);
    EXPECT_EQ(destage_.stats().filler_bytes, 0u);
    EXPECT_EQ(destage_.stats().stream_bytes, 0u);
  };
  expect_fresh();

  // The old stream's completions, timer and drain poll all fire here and
  // change nothing: no observer or metric hears of them, the drain is
  // abandoned, and the floor stays at the reset.
  int observed = 0;
  destage_.SetDurableObserver([&](uint64_t, uint64_t) { ++observed; });
  destage_.SetDestagedObserver([&](uint64_t) { ++observed; });
  obs::Counter* pages = registry.GetCounter("destage.pages_written");
  uint64_t pages_at_reset = pages->value();
  sim_.Run();
  expect_fresh();
  EXPECT_EQ(observed, 0);
  EXPECT_EQ(pages->value(), pages_at_reset);
  EXPECT_FALSE(drained);
  EXPECT_EQ(cmb_.destaged_floor(), 0u);

  // The new stream behaves like a fresh one: the latency threshold holds a
  // partial page again, and the timer re-arms.
  WriteStream(0, 100, 0x22);
  sim_.RunFor(sim::Us(50));
  EXPECT_EQ(destage_.destaged(), 0u);
  sim_.Run();
  EXPECT_EQ(destage_.destaged(), 100u);
  EXPECT_EQ(destage_.stats().pages_written, 1u);
  EXPECT_EQ(cmb_.destaged_floor(), 100u);
  Result<ParsedDestagePage> page = ReadRingSlot(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->header.sequence, 0u);
  EXPECT_EQ(page->header.epoch, 2u);
}

}  // namespace
}  // namespace xssd::core
