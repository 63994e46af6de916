#include "ftl/ftl.h"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.h"

namespace xssd::ftl {
namespace {

flash::Geometry SmallGeometry() {
  flash::Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  g.page_bytes = 4096;
  return g;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : array_(&sim_, SmallGeometry(), flash::Timing{}, flash::Reliability{},
               1),
        ftl_(&sim_, &array_, MakeConfig()) {}

  static FtlConfig MakeConfig() {
    FtlConfig config;
    config.buffer_pages = 16;
    config.flush_watermark = 4;
    config.gc_low_watermark = 4;
    return config;
  }

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(4096, fill);
  }

  Status WriteSync(uint64_t lpn, Bytes data) {
    Status result = Status::Internal("pending");
    ftl_.WriteBuffered(lpn, std::move(data),
                       [&](Status status) { result = status; });
    sim_.Run();
    return result;
  }

  Result<std::vector<uint8_t>> ReadSync(uint64_t lpn) {
    Status status = Status::Internal("pending");
    std::vector<uint8_t> data;
    ftl_.ReadPage(IoClass::kConventional, lpn,
                  [&](Status s, std::vector<uint8_t> d) {
                    status = s;
                    data = std::move(d);
                  });
    sim_.Run();
    if (!status.ok()) return status;
    return data;
  }

  Status FlushSync() {
    Status result = Status::Internal("pending");
    ftl_.Flush([&](Status status) { result = status; });
    sim_.Run();
    return result;
  }

  /// The page the array holds for `lpn` (nullptr when unmapped).
  const Bytes* Stored(uint64_t lpn) {
    uint64_t ppn = ftl_.page_map().Lookup(lpn);
    if (ppn == kUnmapped) return nullptr;
    return array_.PeekPage(flash::AddressOfPage(array_.geometry(), ppn));
  }

  sim::Simulator sim_;
  flash::Array array_;
  Ftl ftl_;
};

TEST_F(FtlTest, LpnCountReflectsOverprovisioning) {
  // 12.5% OP on 512 raw pages.
  EXPECT_EQ(ftl_.lpn_count(), 448u);
}

TEST_F(FtlTest, BufferedWriteReadBack) {
  ASSERT_TRUE(WriteSync(10, Page(0xAB)).ok());
  auto data = ReadSync(10);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0xAB);
  EXPECT_GE(ftl_.stats().buffer_hits, 1u);  // served from the data buffer
}

TEST_F(FtlTest, BufferedWriteAckIsFasterThanProgram) {
  sim::SimTime acked = 0;
  ftl_.WriteBuffered(3, Page(1), [&](Status) { acked = sim_.Now(); });
  sim_.Run();
  flash::Timing timing;
  EXPECT_LT(acked, timing.program_latency / 4);  // cached-write latency
}

TEST_F(FtlTest, FlushPersistsAndSurvivesBufferDrop) {
  Bytes page(Page(0x5A));
  ASSERT_TRUE(WriteSync(5, page).ok());
  EXPECT_GT(ftl_.dirty_pages(), 0u);
  ASSERT_TRUE(FlushSync().ok());
  EXPECT_EQ(ftl_.dirty_pages(), 0u);
  EXPECT_GE(ftl_.stats().flash_programs, 1u);
  // The array keeps the buffer handed in, not a copy of it.
  ASSERT_NE(Stored(5), nullptr);
  EXPECT_EQ(Stored(5)->data(), page.data());
  auto data = ReadSync(5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0x5A);
}

TEST_F(FtlTest, FlushOnCleanDeviceCompletes) {
  EXPECT_TRUE(FlushSync().ok());
}

TEST_F(FtlTest, UnwrittenPageReadsZeros) {
  auto data = ReadSync(100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0);
  EXPECT_EQ((*data)[4095], 0);
}

TEST_F(FtlTest, DirectWriteBypassesBuffer) {
  Status result = Status::Internal("pending");
  ftl_.WriteDirect(IoClass::kDestage, 7, Page(0x77),
                   [&](Status status) { result = status; });
  sim_.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ftl_.dirty_pages(), 0u);
  EXPECT_GE(ftl_.stats().flash_programs, 1u);
  auto data = ReadSync(7);
  EXPECT_EQ((*data)[0], 0x77);
}

TEST_F(FtlTest, DirectWriteSupersedesBufferedCopy) {
  ASSERT_TRUE(WriteSync(9, Page(1)).ok());
  Status result = Status::Internal("pending");
  ftl_.WriteDirect(IoClass::kConventional, 9, Page(2),
                   [&](Status status) { result = status; });
  sim_.Run();
  ASSERT_TRUE(result.ok());
  auto data = ReadSync(9);
  EXPECT_EQ((*data)[0], 2);
}

TEST_F(FtlTest, TrimDropsData) {
  ASSERT_TRUE(WriteSync(11, Page(0x11)).ok());
  ASSERT_TRUE(FlushSync().ok());
  ftl_.Trim(11);
  auto data = ReadSync(11);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0);  // trimmed page reads zeros
}

TEST_F(FtlTest, OverwriteReturnsLatestVersion) {
  for (uint8_t version = 1; version <= 5; ++version) {
    ASSERT_TRUE(WriteSync(20, Page(version)).ok());
    if (version % 2 == 0) {
      ASSERT_TRUE(FlushSync().ok());
    }
  }
  auto data = ReadSync(20);
  EXPECT_EQ((*data)[0], 5);
}

TEST_F(FtlTest, AdmissionBackpressureDelaysOverflow) {
  // Issue far more writes than the buffer holds; all must eventually ack
  // and all data must be intact.
  int acked = 0;
  for (uint64_t lpn = 0; lpn < 64; ++lpn) {
    ftl_.WriteBuffered(lpn, Page(static_cast<uint8_t>(lpn)),
                       [&](Status status) {
                         EXPECT_TRUE(status.ok());
                         ++acked;
                       });
  }
  sim_.Run();
  EXPECT_EQ(acked, 64);
  ASSERT_TRUE(FlushSync().ok());
  for (uint64_t lpn = 0; lpn < 64; ++lpn) {
    auto data = ReadSync(lpn);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ((*data)[0], static_cast<uint8_t>(lpn)) << "lpn " << lpn;
  }
}

TEST_F(FtlTest, GcReclaimsSpaceUnderChurn) {
  // Overwrite a small working set far beyond raw capacity; GC must keep
  // making erased blocks available and the latest data must survive.
  sim::Rng rng(5);
  std::map<uint64_t, uint8_t> expected;
  for (int i = 0; i < 3000; ++i) {
    uint64_t lpn = rng.Uniform(64);
    uint8_t fill = static_cast<uint8_t>(rng.Next());
    expected[lpn] = fill;
    ftl_.WriteBuffered(lpn, Page(fill), [](Status) {});
    if (i % 64 == 63) sim_.Run();
  }
  sim_.Run();
  ASSERT_TRUE(FlushSync().ok());
  EXPECT_GT(ftl_.stats().gc_erases, 0u);
  EXPECT_GT(ftl_.free_blocks(), 0u);
  for (const auto& [lpn, fill] : expected) {
    auto data = ReadSync(lpn);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ((*data)[0], fill) << "lpn " << lpn;
  }
  // With a write-back buffer coalescing hot pages, the flash-side write
  // count can legitimately undercut host writes; GC relocations push it
  // back up. It must at least be positive and finite.
  EXPECT_GT(ftl_.stats().WriteAmplification(), 0.0);
}

TEST_F(FtlTest, GcRelocatesPagesWithoutCopying) {
  // Cold (odd) lpns interleaved with hot (even) ones on a mostly full
  // device, so GC victims hold live cold pages.
  constexpr uint64_t kLpns = 384;
  for (uint64_t lpn = 0; lpn < kLpns; ++lpn) {
    ftl_.WriteBuffered(lpn, Page(static_cast<uint8_t>(lpn)), [](Status) {});
  }
  sim_.Run();
  ASSERT_TRUE(FlushSync().ok());
  std::map<uint64_t, std::pair<uint64_t, const uint8_t*>> cold;
  for (uint64_t lpn = 1; lpn < kLpns; lpn += 2) {
    ASSERT_NE(Stored(lpn), nullptr);
    cold[lpn] = {ftl_.page_map().Lookup(lpn), Stored(lpn)->data()};
  }
  sim::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    ftl_.WriteBuffered(2 * rng.Uniform(kLpns / 2), Page(1), [](Status) {});
    if (i % 64 == 63) sim_.Run();
  }
  sim_.Run();
  ASSERT_TRUE(FlushSync().ok());
  ASSERT_GT(ftl_.stats().gc_relocations, 0u);
  // A relocated page is the victim page's bytes, moved by handle.
  int moved = 0;
  for (const auto& [lpn, before] : cold) {
    if (ftl_.page_map().Lookup(lpn) == before.first) continue;
    ++moved;
    ASSERT_NE(Stored(lpn), nullptr);
    EXPECT_EQ(Stored(lpn)->data(), before.second) << "lpn " << lpn;
  }
  EXPECT_GT(moved, 0);
}

TEST_F(FtlTest, SteadyChurnSpillsNoEventCallback) {
  // Every flash op's completion captures {owner, slot}, so the events of
  // steady churn fit sim::EventFn's inline buffer: buffered and direct
  // writes, flash reads and buffer hits, writeback and GC relocations.
  const uint64_t lpns = ftl_.lpn_count() * 3 / 4;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl_.WriteBuffered(lpn, Page(1), [](Status) {});
  }
  sim_.Run();
  ASSERT_TRUE(FlushSync().ok());
  sim::Rng rng(11);
  uint64_t failures = 0;
  auto count = [&failures](Status status) {
    if (!status.ok()) ++failures;
  };
  auto churn = [&](int ops) {
    uint64_t buffered = 0;
    for (int i = 0; i < ops; ++i) {
      const uint64_t lpn = rng.Uniform(lpns);
      switch (i % 4) {
        case 0:
          ftl_.WriteDirect(IoClass::kDestage, lpn, Page(2), count);
          break;
        case 1:
          buffered = lpn;
          ftl_.WriteBuffered(lpn, Page(3), count);
          break;
        default:  // a flash read, then a buffer hit on the write above
          ftl_.ReadPage(IoClass::kConventional, i % 4 == 2 ? lpn : buffered,
                        [&count](Status status, std::vector<uint8_t>) {
                          count(status);
                        });
          break;
      }
      if (i % 16 == 15) sim_.Run();
    }
    sim_.Run();
  };
  churn(2000);  // warm-up: GC reaches steady state
  ASSERT_GT(ftl_.stats().gc_erases, 0u);
  const FtlStats before = ftl_.stats();
  const uint64_t flash_reads = array_.stats().reads;
  const uint64_t spills = sim::EventFn::heap_fallbacks();
  churn(2000);
  EXPECT_EQ(sim::EventFn::heap_fallbacks() - spills, 0u);
  EXPECT_EQ(failures, 0u);  // the device never filled
  EXPECT_GT(ftl_.stats().gc_erases, before.gc_erases);
  EXPECT_GT(ftl_.stats().gc_relocations, before.gc_relocations);
  EXPECT_GT(ftl_.stats().buffer_hits, before.buffer_hits);
  EXPECT_GT(array_.stats().reads - flash_reads,
            ftl_.stats().gc_relocations - before.gc_relocations);
}

TEST(FtlBadBlocks, ProgramFailuresAreRetriedTransparently) {
  sim::Simulator sim;
  flash::Reliability reliability;
  reliability.program_fail_rate = 0.05;
  flash::Array array(&sim, SmallGeometry(), flash::Timing{}, reliability, 3);
  FtlConfig config;
  config.buffer_pages = 8;
  config.flush_watermark = 2;
  Ftl ftl(&sim, &array, config);

  int failed = 0;
  for (uint64_t lpn = 0; lpn < 100; ++lpn) {
    ftl.WriteDirect(IoClass::kConventional, lpn,
                    std::vector<uint8_t>(4096, static_cast<uint8_t>(lpn)),
                    [&](Status status) {
                      if (!status.ok()) ++failed;
                    });
    sim.Run();
  }
  EXPECT_EQ(failed, 0);  // every failure internally retried on a new block
  EXPECT_GT(ftl.stats().bad_block_retires, 0u);
  // All data readable.
  for (uint64_t lpn = 0; lpn < 100; ++lpn) {
    Status status = Status::Internal("pending");
    std::vector<uint8_t> data;
    ftl.ReadPage(IoClass::kConventional, lpn,
                 [&](Status s, std::vector<uint8_t> d) {
                   status = s;
                   data = std::move(d);
                 });
    sim.Run();
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(data[0], static_cast<uint8_t>(lpn));
  }
}

}  // namespace
}  // namespace xssd::ftl
