#include "ntb/ntb.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pcie/tlp.h"

namespace xssd::ntb {
namespace {

/// Records MMIO traffic on a remote fabric.
class SinkDevice : public pcie::MmioDevice {
 public:
  explicit SinkDevice(size_t size) : memory(size, 0) {}
  void OnMmioWrite(uint64_t offset, const uint8_t* data,
                   size_t len) override {
    std::memcpy(memory.data() + offset, data, len);
    ++writes;
  }
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override {
    std::memcpy(out, memory.data() + offset, len);
  }
  std::vector<uint8_t> memory;
  int writes = 0;
};

class NtbTest : public ::testing::Test {
 protected:
  NtbTest()
      : local_(&sim_, pcie::FabricConfig{}, "local"),
        remote_(&sim_, pcie::FabricConfig{}, "remote"),
        adapter_(&sim_, NtbConfig{}, "ntb"),
        sink_(8192) {
    EXPECT_TRUE(local_.AddMmioRegion(0x1000, 4096, &adapter_, "win").ok());
    EXPECT_TRUE(remote_.AddMmioRegion(0x9000, 8192, &sink_, "sink").ok());
  }

  sim::Simulator sim_;
  pcie::PcieFabric local_;
  pcie::PcieFabric remote_;
  NtbAdapter adapter_;
  SinkDevice sink_;
};

TEST_F(NtbTest, ForwardsWritesWithAddressTranslation) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  uint8_t data[32];
  for (int i = 0; i < 32; ++i) data[i] = static_cast<uint8_t>(i + 1);
  local_.HostWrite(0x1000 + 100, data, 32, 64);
  sim_.Run();
  EXPECT_EQ(sink_.writes, 1);
  EXPECT_EQ(std::memcmp(sink_.memory.data() + 100, data, 32), 0);
}

TEST_F(NtbTest, CrossLinkAddsLatency) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  uint8_t byte = 0x5A;
  local_.HostWrite(0x1000, &byte, 1, 64);
  sim_.Run();
  // Local link + NTB cable + hop latency + remote fabric: >= 1.3 us hop.
  EXPECT_GE(sim_.Now(), NtbConfig{}.hop_latency);
}

TEST_F(NtbTest, WireAccountingCountsOverheadPerChunk) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  uint8_t data[128] = {0};
  local_.HostWrite(0x1000, data, 128, 64);
  sim_.Run();
  EXPECT_EQ(adapter_.forwarded_payload_bytes(), 128u);
  EXPECT_EQ(adapter_.forwarded_packets(), 2u);
  EXPECT_EQ(adapter_.forwarded_wire_bytes(),
            128 + 2 * pcie::kTlpOverheadBytes);
}

TEST_F(NtbTest, OverlappingWindowsRejected) {
  ASSERT_TRUE(adapter_.AddWindow(0, 1024, &remote_, 0x9000).ok());
  EXPECT_FALSE(adapter_.AddWindow(512, 1024, &remote_, 0x9000).ok());
  EXPECT_TRUE(adapter_.AddWindow(1024, 1024, &remote_, 0x9000).ok());
}

TEST_F(NtbTest, ReadsServedFromRemoteFunctionally) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  sink_.memory[5] = 0xEE;
  std::vector<uint8_t> got;
  local_.HostRead(0x1005, 1,
                  [&](std::vector<uint8_t> data) { got = std::move(data); });
  sim_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0xEE);
}

}  // namespace
}  // namespace xssd::ntb
