#include "pcie/fabric.h"

#include <gtest/gtest.h>

#include <cstring>

#include "pcie/store_engine.h"

namespace xssd::pcie {
namespace {

/// Records all traffic it receives; serves reads from a backing buffer.
class RecordingDevice : public MmioDevice {
 public:
  explicit RecordingDevice(size_t size) : memory_(size, 0) {}

  void OnMmioWrite(uint64_t offset, const Bytes& data) override {
    std::memcpy(memory_.data() + offset, data.data(), data.size());
    writes_.push_back({offset, data.size()});
  }
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override {
    std::memcpy(out, memory_.data() + offset, len);
  }

  std::vector<uint8_t> memory_;
  std::vector<std::pair<uint64_t, size_t>> writes_;
};

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(&sim_, FabricConfig{}, "test"), device_(4096) {
    EXPECT_TRUE(fabric_.AddMmioRegion(0x1000, 4096, &device_, "dev").ok());
  }

  sim::Simulator sim_;
  PcieFabric fabric_;
  RecordingDevice device_;
};

TEST_F(FabricTest, Gen2x4Is2GBps) {
  EXPECT_DOUBLE_EQ(fabric_.link_bytes_per_sec(), 2e9);
}

TEST_F(FabricTest, OverlappingRegionRejected) {
  RecordingDevice other(16);
  EXPECT_FALSE(fabric_.AddMmioRegion(0x1800, 16, &other, "overlap").ok());
  EXPECT_TRUE(fabric_.AddMmioRegion(0x10000, 16, &other, "fine").ok());
}

TEST_F(FabricTest, RegionWhoseEndOverflowsRejected) {
  RecordingDevice other(16);
  EXPECT_FALSE(fabric_.AddMmioRegion(UINT64_MAX - 8, 16, &other, "wrap").ok());
  EXPECT_TRUE(fabric_.AddMmioRegion(UINT64_MAX - 16, 16, &other, "top").ok());
}

TEST_F(FabricTest, NullDeviceRejected) {
  EXPECT_FALSE(fabric_.AddMmioRegion(0x20000, 16, nullptr, "null").ok());
}

TEST_F(FabricTest, HostWriteDeliversDataAfterLinkAndPropagation) {
  uint8_t data[16];
  for (int i = 0; i < 16; ++i) data[i] = static_cast<uint8_t>(i);
  fabric_.HostWrite(0x1100, Bytes::Copy(data, 16), 64);
  EXPECT_TRUE(device_.writes_.empty());  // not delivered synchronously
  sim_.Run();
  ASSERT_EQ(device_.writes_.size(), 1u);
  EXPECT_EQ(device_.writes_[0].first, 0x100u);  // region-relative offset
  EXPECT_EQ(std::memcmp(device_.memory_.data() + 0x100, data, 16), 0);
  // (16 + 26 overhead) bytes at 2 GB/s = 21 ns + 250 ns propagation.
  EXPECT_NEAR(static_cast<double>(sim_.Now()), 271, 2);
}

TEST_F(FabricTest, PostedCallbackFiresAtLinkAcceptNotDelivery) {
  uint8_t data[16] = {0};
  sim::SimTime posted_at = 0;
  fabric_.HostWrite(0x1000, Bytes::Copy(data, 16), 64,
                    [&]() { posted_at = sim_.Now(); });
  sim_.Run();
  EXPECT_GT(posted_at, 0u);
  EXPECT_LT(posted_at, sim_.Now());  // delivery (with propagation) is later
}

TEST_F(FabricTest, ChunkingChargesPerTlpOverhead) {
  // 128 bytes as 64 B WC lines vs 8 B UC stores: UC occupies the link for
  // longer.
  uint8_t data[128] = {0};
  sim::SimTime wc_done = 0;
  fabric_.HostWrite(0x1000, Bytes::Copy(data, 128), 64,
                    [&]() { wc_done = sim_.Now(); });
  sim_.Run();
  sim::SimTime wc_elapsed = wc_done;

  sim::Simulator sim2;
  PcieFabric fabric2(&sim2, FabricConfig{}, "t2");
  RecordingDevice dev2(4096);
  ASSERT_TRUE(fabric2.AddMmioRegion(0x1000, 4096, &dev2, "dev").ok());
  sim::SimTime uc_done = 0;
  fabric2.HostWrite(0x1000, Bytes::Copy(data, 128), 8,
                    [&]() { uc_done = sim2.Now(); });
  sim2.Run();
  EXPECT_GT(uc_done, wc_elapsed);
}

TEST_F(FabricTest, HostReadReturnsDeviceBytes) {
  device_.memory_[0x200] = 0xAB;
  device_.memory_[0x201] = 0xCD;
  std::vector<uint8_t> got;
  fabric_.HostRead(0x1200, 2, [&](std::vector<uint8_t> data) {
    got = std::move(data);
  });
  sim_.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 0xAB);
  EXPECT_EQ(got[1], 0xCD);
  EXPECT_GT(sim_.Now(), 900u);  // a non-posted round trip is ~1 us
}

TEST_F(FabricTest, HostReadObservesStateAtServiceTime) {
  // A read issued before a write lands still sees the pre-write value if
  // it is serviced first; ordering is by virtual time, not call order.
  std::vector<uint8_t> got;
  fabric_.HostRead(0x1000, 1,
                   [&](std::vector<uint8_t> data) { got = std::move(data); });
  sim_.Run();
  EXPECT_EQ(got[0], 0);
}

TEST_F(FabricTest, DmaRoundTrip) {
  uint8_t payload[256];
  for (int i = 0; i < 256; ++i) payload[i] = static_cast<uint8_t>(i ^ 0x5A);
  bool wrote = false;
  fabric_.DmaToHost(0x8000, payload, 256, [&]() { wrote = true; });
  sim_.Run();
  ASSERT_TRUE(wrote);
  EXPECT_EQ(std::memcmp(fabric_.host_memory() + 0x8000, payload, 256), 0);

  Bytes read_back;
  fabric_.DmaFromHost(0x8000, 256, [&](Bytes data) {
    read_back = std::move(data);
  });
  sim_.Run();
  ASSERT_EQ(read_back.size(), 256u);
  EXPECT_EQ(std::memcmp(read_back.data(), payload, 256), 0);
}

TEST(FabricDeathTest, DmaPastTheEndOfHostMemoryFailsAtOnce) {
  // A PRP near 2^64 wraps `host_addr + len` past a naive bound; the check
  // must fail at the call, before any event reads or writes out of bounds.
  sim::Simulator sim;
  PcieFabric fabric(&sim, FabricConfig{}, "t");
  uint8_t payload[16] = {0};
  EXPECT_DEATH(fabric.DmaFromHost(UINT64_MAX - 8, 16, [](Bytes) {}),
               "CHECK failed");
  EXPECT_DEATH(fabric.DmaToHost(UINT64_MAX - 8, payload, 16, [] {}),
               "CHECK failed");
}

TEST(FabricDeathTest, HostReadWithWrappingLengthFailsAtOnce) {
  // `addr + len` wraps to 0 and passes a naive `addr + len <= end` bound.
  sim::Simulator sim;
  PcieFabric fabric(&sim, FabricConfig{}, "t");
  RecordingDevice device(4096);
  ASSERT_TRUE(fabric.AddMmioRegion(0x1000, 4096, &device, "dev").ok());
  const size_t wrapping = SIZE_MAX - 0x1000 + 1;
  EXPECT_DEATH(fabric.HostRead(0x1000, wrapping, [](std::vector<uint8_t>) {}),
               "CHECK failed");
}

TEST_F(FabricTest, FunctionalAccessWithWrappingLengthIsOutOfRange) {
  // Without the check the device would get a ~2^64-byte access.
  const size_t wrapping = SIZE_MAX - 0x1000 + 1;
  uint8_t byte = 0;
  EXPECT_TRUE(fabric_.FunctionalRead(0x1000, &byte, wrapping).IsOutOfRange());
  EXPECT_TRUE(fabric_.FunctionalWrite(0x1000, &byte, wrapping).IsOutOfRange());
  EXPECT_TRUE(device_.writes_.empty());
}

TEST_F(FabricTest, FunctionalAccessorsBypassTiming) {
  uint8_t value = 0x77;
  EXPECT_TRUE(fabric_.FunctionalWrite(0x1400, &value, 1).ok());
  uint8_t out = 0;
  EXPECT_TRUE(fabric_.FunctionalRead(0x1400, &out, 1).ok());
  EXPECT_EQ(out, 0x77);
  EXPECT_EQ(sim_.Now(), 0u);  // no virtual time passed
  EXPECT_TRUE(fabric_.FunctionalRead(0x9999999, &out, 1).IsOutOfRange());
}

TEST(StoreEngine, ModeSelectsChunk) {
  sim::Simulator sim;
  PcieFabric fabric(&sim, FabricConfig{}, "t");
  StoreEngine wc(&fabric, MmioMode::kWriteCombining);
  StoreEngine uc(&fabric, MmioMode::kUncached);
  EXPECT_EQ(wc.ChunkBytes(), 64u);
  EXPECT_EQ(uc.ChunkBytes(), 8u);
  EXPECT_EQ(wc.WireBytes(128), 128 + 2 * kTlpOverheadBytes);
  EXPECT_EQ(uc.WireBytes(128), 128 + 16 * kTlpOverheadBytes);
}

}  // namespace
}  // namespace xssd::pcie
