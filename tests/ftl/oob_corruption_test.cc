// Corrupted-OOB differential test: flipping bytes in stored OOB records
// must make the recovery scan skip exactly the affected copies (CRC/framing
// rejects), never mis-map them — the rebuilt map equals the live map minus
// the corrupted pages.

#include <gtest/gtest.h>

#include <vector>

#include "check/mapping_oracle.h"
#include "flash/array.h"
#include "ftl/ftl.h"
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

class OobCorruptionTest : public ::testing::Test {
 protected:
  OobCorruptionTest()
      : array_(&sim_, SmallGeometry(), flash::Timing{}, flash::Reliability{},
               3),
        ftl_(&sim_, &array_, FtlConfig{}) {}

  /// Write each of the first `count` lpns exactly once and push everything
  /// to NAND (single copies: no stale duplicates to resurrect).
  void FillOnce(uint64_t count) {
    for (uint64_t lpn = 0; lpn < count; ++lpn) {
      ftl_.WriteBuffered(lpn, std::vector<uint8_t>(4096, uint8_t(lpn)),
                         [](Status status) { ASSERT_TRUE(status.ok()); });
      if (lpn % 64 == 63) sim_.Run();
    }
    bool flushed = false;
    ftl_.Flush([&](Status) { flushed = true; });
    sim_.RunWhile([&]() { return flushed; });
    sim_.Run();  // drain writebacks completely
  }

  sim::Simulator sim_;
  flash::Array array_;
  Ftl ftl_;
};

TEST_F(OobCorruptionTest, CorruptedRecordsAreSkippedNotMisMapped) {
  FillOnce(256);
  // Baseline: clean flash rebuilds exactly.
  ASSERT_TRUE(check::CheckRebuildMatches(ftl_, array_.geometry()).empty());

  // Corrupt the OOB of the live copies of a seeded sample of lpns, at
  // varying byte offsets — header, middle, and tail of the record.
  sim::Rng rng(99);
  std::vector<uint64_t> victims;
  while (victims.size() < 12) {
    uint64_t lpn = rng.Uniform(256);
    bool seen = false;
    for (uint64_t v : victims) seen |= (v == lpn);
    if (seen) continue;  // one flip per page: flips must never cancel out
    uint64_t ppn = ftl_.page_map().Lookup(lpn);
    ASSERT_NE(ppn, kUnmapped);
    flash::Address addr = flash::AddressOfPage(array_.geometry(), ppn);
    ASSERT_TRUE(array_.CorruptOob(addr, static_cast<size_t>(rng.Uniform(32)),
                                  static_cast<uint8_t>(1 + rng.Uniform(255))));
    victims.push_back(lpn);
  }

  RebuildReport report;
  PageMap rebuilt = ftl_.RebuildFromOob(&report);
  // Every corrupted record was rejected by CRC/framing — none slipped
  // through as a plausible mapping.
  EXPECT_GE(report.oob_decode_failures, victims.size());
  EXPECT_EQ(report.mapped, ftl_.page_map().mapped_pages() - victims.size());

  // Differential: victims drop out (each was the lpn's only copy), every
  // other lpn maps identically to the live map.
  for (uint64_t lpn = 0; lpn < 256; ++lpn) {
    bool is_victim = false;
    for (uint64_t v : victims) is_victim |= (v == lpn);
    if (is_victim) {
      EXPECT_EQ(rebuilt.Lookup(lpn), kUnmapped) << "lpn " << lpn;
    } else {
      EXPECT_EQ(rebuilt.Lookup(lpn), ftl_.page_map().Lookup(lpn))
          << "lpn " << lpn;
      EXPECT_EQ(rebuilt.SeqOf(lpn), ftl_.page_map().SeqOf(lpn))
          << "lpn " << lpn;
    }
  }
  // The rebuilt map is still structurally sound.
  std::vector<check::Divergence> structural =
      check::CheckMappingConsistent(rebuilt, array_.geometry());
  EXPECT_TRUE(structural.empty())
      << structural[0].rule << " — " << structural[0].detail;
}

TEST_F(OobCorruptionTest, EveryByteOfTheRecordIsCovered) {
  // A single-byte flip at ANY offset in the record must be detected: walk
  // one page's whole OOB record byte by byte, rebuilding after each flip
  // (and undoing it after — XOR twice restores the original).
  FillOnce(64);
  uint64_t lpn = 7;
  uint64_t ppn = ftl_.page_map().Lookup(lpn);
  ASSERT_NE(ppn, kUnmapped);
  flash::Address addr = flash::AddressOfPage(array_.geometry(), ppn);
  const flash::Oob* oob = array_.PeekOob(addr);
  ASSERT_NE(oob, nullptr);
  const size_t record_len = oob->size();
  for (size_t index = 0; index < record_len; ++index) {
    ASSERT_TRUE(array_.CorruptOob(addr, index, 0x5A));
    RebuildReport report;
    PageMap rebuilt = ftl_.RebuildFromOob(&report);
    EXPECT_EQ(rebuilt.Lookup(lpn), kUnmapped)
        << "flip at byte " << index << " went undetected";
    EXPECT_GE(report.oob_decode_failures, 1u) << "byte " << index;
    ASSERT_TRUE(array_.CorruptOob(addr, index, 0x5A));  // restore
  }
  // Restored record: the scan believes the copy again.
  EXPECT_TRUE(check::CheckRebuildMatches(ftl_, array_.geometry()).empty());
}

}  // namespace
}  // namespace xssd::ftl
