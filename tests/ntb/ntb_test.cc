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
  void OnMmioWrite(uint64_t offset, const Bytes& data) override {
    std::memcpy(memory.data() + offset, data.data(), data.size());
    ++writes;
    offsets.push_back(offset);
  }
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override {
    std::memcpy(out, memory.data() + offset, len);
  }
  std::vector<uint8_t> memory;
  int writes = 0;
  std::vector<uint64_t> offsets;  // in arrival order
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
  local_.HostWrite(0x1000 + 100, Bytes::Copy(data, 32), 64);
  sim_.Run();
  EXPECT_EQ(sink_.writes, 1);
  EXPECT_EQ(std::memcmp(sink_.memory.data() + 100, data, 32), 0);
}

TEST_F(NtbTest, CrossLinkAddsLatency) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  uint8_t byte = 0x5A;
  local_.HostWrite(0x1000, Bytes::Copy(&byte, 1), 64);
  sim_.Run();
  // Local link + NTB cable + hop latency + remote fabric: >= 1.3 us hop.
  EXPECT_GE(sim_.Now(), kHopLatency);
}

TEST_F(NtbTest, WireAccountingCountsOverheadPerChunk) {
  ASSERT_TRUE(adapter_.AddWindow(0, 4096, &remote_, 0x9000).ok());
  uint8_t data[128] = {0};
  local_.HostWrite(0x1000, Bytes::Copy(data, 128), 64);
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

TEST_F(NtbTest, WindowWhoseEndOverflowsRejected) {
  EXPECT_FALSE(adapter_.AddWindow(UINT64_MAX - 8, 16, &remote_, 0x9000).ok());
  EXPECT_TRUE(adapter_.AddWindow(UINT64_MAX - 16, 16, &remote_, 0x9000).ok());
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

// Both fabrics run on the simulator's one clock and queue: a write the
// adapter forwards to land on the remote fabric at T, and remote-fabric
// events scheduled for the same T just before and just after it, run in
// the order they were scheduled on both backends. Each one enters the
// remote fabric's peer link, so the sink sees them in execution order.
TEST(NtbOneQueueTest, ForwardAndRemoteEventsAtOneTimeRunInScheduledOrder) {
  for (auto backend : {sim::Simulator::SchedulerBackend::kWheel,
                       sim::Simulator::SchedulerBackend::kHeap}) {
    sim::Simulator sim(backend);
    pcie::PcieFabric local(&sim, pcie::FabricConfig{}, "local");
    pcie::PcieFabric remote(&sim, pcie::FabricConfig{}, "remote");
    NtbAdapter adapter(&sim, NtbConfig{}, "ntb");
    SinkDevice sink(8192);
    ASSERT_TRUE(local.AddMmioRegion(0x1000, 4096, &adapter, "win").ok());
    ASSERT_TRUE(remote.AddMmioRegion(0x9000, 8192, &sink, "sink").ok());
    ASSERT_TRUE(adapter.AddWindow(0, 4096, &remote, 0x9000).ok());
    const uint8_t byte = 0x5A;
    auto remote_write = [&](uint64_t offset) {
      return [&remote, &byte, offset]() {
        remote.PeerWrite(0x9000 + offset, Bytes::Copy(&byte, 1), 64);
      };
    };
    sim::SimTime landed = 0;
    sim.ScheduleAt(100, [&]() {
      // The forward lands after the cable serialises it, plus the hop.
      landed = adapter.link().Probe(pcie::WireBytesFor(1, 64)) + kHopLatency;
      sim.ScheduleAt(landed, remote_write(1));
      ASSERT_TRUE(local.FunctionalWrite(0x1000 + 2, &byte, 1).ok());
      sim.ScheduleAt(landed, remote_write(3));
    });
    sim.Run();
    EXPECT_EQ(adapter.link().busy_until() + kHopLatency, landed);
    EXPECT_EQ(sink.offsets, (std::vector<uint64_t>{1, 2, 3}))
        << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace xssd::ntb
