#include "core/cmb_module.h"

#include <gtest/gtest.h>

#include <cstring>

#include "sim/random.h"

namespace xssd::core {
namespace {

CmbConfig SmallConfig() {
  CmbConfig config;
  config.ring_bytes = 4096;
  config.queue_bytes = 1024;
  return config;
}

std::vector<uint8_t> Bytes(size_t len, uint8_t fill) {
  return std::vector<uint8_t>(len, fill);
}

class CmbTest : public ::testing::Test {
 protected:
  CmbTest() : cmb_(&sim_, SmallConfig()) {}

  void Write(uint64_t ring_offset, const std::vector<uint8_t>& data) {
    cmb_.OnRingWrite(ring_offset, xssd::Bytes::Copy(data.data(), data.size()));
  }

  sim::Simulator sim_;
  CmbModule cmb_;
};

TEST_F(CmbTest, CreditAdvancesOnlyAfterPersist) {
  Write(0, Bytes(100, 1));
  EXPECT_EQ(cmb_.local_credit(), 0u);  // still in the staging queue
  EXPECT_EQ(cmb_.staging_occupancy(), 100u);
  sim_.Run();
  EXPECT_EQ(cmb_.local_credit(), 100u);
  EXPECT_EQ(cmb_.staging_occupancy(), 0u);
}

TEST_F(CmbTest, CreditHookFiresOnAdvance) {
  std::vector<uint64_t> credits;
  cmb_.SetCreditHook([&](uint64_t credit) { credits.push_back(credit); });
  Write(0, Bytes(50, 1));
  Write(50, Bytes(50, 2));
  sim_.Run();
  ASSERT_EQ(credits.size(), 2u);
  EXPECT_EQ(credits[0], 50u);
  EXPECT_EQ(credits[1], 100u);
}

TEST_F(CmbTest, ArrivalHookSeesStreamOffsets) {
  std::vector<uint64_t> offsets;
  cmb_.SetArrivalHook([&](uint64_t offset, const xssd::Bytes&) {
    offsets.push_back(offset);
  });
  Write(0, Bytes(64, 1));
  Write(64, Bytes(64, 2));
  sim_.Run();
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 64}));
}

TEST_F(CmbTest, OutOfOrderArrivalStallsCreditAtGap) {
  // Chunk B lands before chunk A: the counter must not advance over the
  // hole (paper §4.1: "only ... when contiguous chunks of data are
  // formed").
  Write(100, Bytes(100, 2));  // B: [100, 200)
  sim_.Run();
  EXPECT_EQ(cmb_.local_credit(), 0u);
  EXPECT_TRUE(cmb_.HasPendingBeyondCredit());
  Write(0, Bytes(100, 1));  // A: [0, 100) fills the gap
  sim_.Run();
  EXPECT_EQ(cmb_.local_credit(), 200u);
  EXPECT_FALSE(cmb_.HasPendingBeyondCredit());
}

TEST_F(CmbTest, RingDataIsActuallyStored) {
  std::vector<uint8_t> data(128);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  Write(0, data);
  sim_.Run();
  std::vector<uint8_t> out(128);
  cmb_.ReadRing(0, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(CmbTest, CopyOutReassemblesAcrossRingWrap) {
  // Fill the ring once, destage it, then wrap.
  cmb_.set_destaged_floor(0);
  Write(0, Bytes(4096, 1));
  sim_.Run();
  cmb_.set_destaged_floor(4096);  // everything destaged; ring reusable
  // Stream offsets [4096, 4296) map to ring [0, 200).
  std::vector<uint8_t> data(200);
  for (size_t i = 0; i < 200; ++i) data[i] = static_cast<uint8_t>(i + 3);
  Write(0, data);
  sim_.Run();
  EXPECT_EQ(cmb_.local_credit(), 4296u);
  std::vector<uint8_t> out(200);
  cmb_.CopyOut(4096, out.data(), 200);
  EXPECT_EQ(out, data);
}

TEST_F(CmbTest, WrapAroundChunkStoredContiguously) {
  cmb_.set_destaged_floor(0);
  Write(0, Bytes(4000, 1));
  sim_.Run();
  cmb_.set_destaged_floor(4000);
  // A write crossing the ring boundary: stream [4000, 4200) maps to ring
  // [4000,4096) + [0,104). The host store path splits it in two (a TLP
  // never crosses the BAR end).
  std::vector<uint8_t> data(200);
  for (size_t i = 0; i < 200; ++i) data[i] = static_cast<uint8_t>(i ^ 0x55);
  Write(4000, std::vector<uint8_t>(data.begin(), data.begin() + 96));
  Write(0, std::vector<uint8_t>(data.begin() + 96, data.end()));
  sim_.Run();
  std::vector<uint8_t> out(200);
  cmb_.CopyOut(4000, out.data(), 200);
  EXPECT_EQ(out, data);
}

TEST_F(CmbTest, OverwriteViolationCounted) {
  EXPECT_EQ(cmb_.overwrite_violations(), 0u);
  // Write a full ring without any destaging, then one more byte region:
  // the second lap overwrites un-destaged data.
  Write(0, Bytes(4096, 1));
  sim_.Run();
  Write(0, Bytes(64, 2));  // stream offset 4096, floor still 0
  sim_.Run();
  EXPECT_EQ(cmb_.overwrite_violations(), 1u);
}

TEST_F(CmbTest, DrainStagingForPowerLossPersistsQueuedChunks) {
  Write(0, Bytes(300, 7));
  EXPECT_EQ(cmb_.local_credit(), 0u);
  cmb_.DrainStagingForPowerLoss();  // no simulator time passes
  EXPECT_EQ(cmb_.local_credit(), 300u);
  EXPECT_EQ(cmb_.staging_occupancy(), 0u);
  sim_.Run();  // stale persist events must be no-ops
  EXPECT_EQ(cmb_.local_credit(), 300u);
}

TEST_F(CmbTest, ResetForRebootClearsEverything) {
  Write(0, Bytes(200, 1));
  sim_.Run();
  cmb_.ResetForReboot();
  EXPECT_EQ(cmb_.local_credit(), 0u);
  EXPECT_EQ(cmb_.highest_received(), 0u);
  std::vector<uint8_t> out(16);
  cmb_.ReadRing(0, out.data(), 16);
  EXPECT_EQ(out, Bytes(16, 0));
}

TEST_F(CmbTest, BackingRateDependsOnKind) {
  CmbConfig dram = SmallConfig();
  dram.backing = BackingKind::kDram;
  CmbModule dram_cmb(&sim_, dram);
  EXPECT_LT(dram_cmb.backing_bytes_per_sec(), cmb_.backing_bytes_per_sec());
}

TEST_F(CmbTest, PersistLatencyScalesWithBackingRate) {
  // 1024 bytes at SRAM speed persists strictly faster than at the shared
  // DRAM rate.
  sim::Simulator sim2;
  CmbConfig dram = SmallConfig();
  dram.backing = BackingKind::kDram;
  CmbModule dram_cmb(&sim2, dram);

  uint64_t sram_done = 0, dram_done = 0;
  cmb_.SetCreditHook([&](uint64_t) { sram_done = sim_.Now(); });
  dram_cmb.SetCreditHook([&](uint64_t) { dram_done = sim2.Now(); });
  xssd::Bytes chunk(std::vector<uint8_t>(1024, 9));
  cmb_.OnRingWrite(0, chunk);
  dram_cmb.OnRingWrite(0, chunk);
  sim_.Run();
  sim2.Run();
  EXPECT_LT(sram_done, dram_done);
}

// Property: random mostly-sequential arrival (within the staging window)
// always converges to full credit with intact bytes.
class CmbShuffleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CmbShuffleTest, WindowedShuffledArrivalsConverge) {
  sim::Simulator sim;
  CmbConfig config;
  config.ring_bytes = 64 * 1024;
  config.queue_bytes = 4096;
  CmbModule cmb(&sim, config);

  sim::Rng rng(GetParam());
  const uint64_t total = 16 * 1024;
  std::vector<uint8_t> stream(total);
  for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());

  // Emit in chunks, shuffled within a sliding 2 KiB window (legal
  // out-of-order arrival per §4.1).
  uint64_t base = 0;
  while (base < total) {
    uint64_t window_end = std::min(base + 2048, total);
    std::vector<std::pair<uint64_t, uint64_t>> chunks;
    uint64_t at = base;
    while (at < window_end) {
      uint64_t len = std::min<uint64_t>(1 + rng.Uniform(256), window_end - at);
      chunks.push_back({at, len});
      at += len;
    }
    for (size_t i = chunks.size(); i > 1; --i) {
      std::swap(chunks[i - 1], chunks[rng.Uniform(i)]);
    }
    for (auto [offset, len] : chunks) {
      cmb.OnRingWrite(offset % config.ring_bytes,
                      xssd::Bytes::Copy(stream.data() + offset, len));
    }
    sim.Run();
    base = window_end;
  }
  EXPECT_EQ(cmb.local_credit(), total);
  std::vector<uint8_t> out(total);
  cmb.CopyOut(0, out.data(), total);
  EXPECT_EQ(out, stream);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmbShuffleTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace xssd::core
