#include "core/villars_device.h"

#include <gtest/gtest.h>

#include <cstring>

#include "host/node.h"
#include "host/xcalls.h"

namespace xssd::core {
namespace {

VillarsConfig SmallConfig() {
  VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  return config;
}

class VillarsDeviceTest : public ::testing::Test {
 protected:
  VillarsDeviceTest()
      : node_(&sim_, SmallConfig(), pcie::FabricConfig{}, "dut") {
    EXPECT_TRUE(node_.Init().ok());
  }

  uint64_t ReadRegister(uint64_t reg) {
    uint8_t raw[8] = {0};
    EXPECT_TRUE(node_.fabric()
                    .FunctionalRead(host::NodeLayout::kCmbBase + reg, raw, 8)
                    .ok());
    uint64_t value = 0;
    std::memcpy(&value, raw, 8);
    return value;
  }

  nvme::Completion Admin(nvme::Command cmd) {
    nvme::Completion result;
    bool got = false;
    node_.driver().Admin(cmd, [&](nvme::Completion cpl) {
      result = cpl;
      got = true;
    });
    sim_.RunWhile([&]() { return got; });
    return result;
  }

  sim::Simulator sim_;
  host::StorageNode node_;
};

TEST_F(VillarsDeviceTest, GeometryRegistersMatchConfig) {
  EXPECT_EQ(ReadRegister(kRegQueueBytes), 32u * 1024);
  EXPECT_EQ(ReadRegister(kRegRingBytes), 128u * 1024);
  EXPECT_EQ(ReadRegister(kRegDestageStartLba), 0u);
  EXPECT_EQ(ReadRegister(kRegDestageLbaCount), 64u);
  EXPECT_EQ(ReadRegister(kRegEpoch), 0u);
}

TEST_F(VillarsDeviceTest, CreditRegistersTrackWrites) {
  std::vector<uint8_t> data(1000, 0x42);
  host::x_pwrite(sim_, node_.client(), data.data(), data.size());
  host::x_fsync(sim_, node_.client());
  EXPECT_EQ(ReadRegister(kRegCredit), 1000u);
  EXPECT_EQ(ReadRegister(kRegLocalCredit), 1000u);
  sim_.RunFor(sim::Ms(2));
  EXPECT_EQ(ReadRegister(kRegDestaged), 1000u);
}

TEST_F(VillarsDeviceTest, VendorSetRoleRoundTrips) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetRole);
  cmd.cdw10 = static_cast<uint32_t>(Role::kPrimary);
  EXPECT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(node_.device().transport().role(), Role::kPrimary);
  uint64_t status_word = ReadRegister(kRegTransportStatus);
  EXPECT_EQ(status_word & StatusBits::kRoleMask,
            static_cast<uint64_t>(Role::kPrimary));

  cmd.cdw10 = 99;  // invalid role
  EXPECT_FALSE(Admin(cmd).ok());
}

TEST_F(VillarsDeviceTest, VendorSetDestagePolicy) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetDestagePolicy);
  cmd.cdw10 = static_cast<uint32_t>(ftl::SchedulingPolicy::kDestagePriority);
  EXPECT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(node_.device().ftl().scheduler().policy(),
            ftl::SchedulingPolicy::kDestagePriority);
  cmd.cdw10 = 7;
  EXPECT_FALSE(Admin(cmd).ok());
}

TEST_F(VillarsDeviceTest, VendorSetReplicationProtocol) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetReplication);
  cmd.cdw10 = static_cast<uint32_t>(ReplicationProtocol::kChain);
  EXPECT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(node_.device().transport().protocol(),
            ReplicationProtocol::kChain);
}

TEST_F(VillarsDeviceTest, VendorSetUpdatePeriod) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetUpdatePeriod);
  cmd.cdw10 = 400;
  EXPECT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(node_.device().transport().update_period(), sim::Ns(400));
}

TEST_F(VillarsDeviceTest, DestageBarrierRegisterWritable) {
  uint64_t barrier = 12345;
  uint8_t raw[8];
  std::memcpy(raw, &barrier, 8);
  ASSERT_TRUE(node_.fabric()
                  .FunctionalWrite(
                      host::NodeLayout::kCmbBase + kRegDestageBarrier, raw, 8)
                  .ok());
  EXPECT_EQ(node_.device().destage().barrier(), 12345u);
  EXPECT_EQ(ReadRegister(kRegDestageBarrier), 12345u);
}

TEST_F(VillarsDeviceTest, PowerFailThenRebootBumpsEpochAndHalts) {
  std::vector<uint8_t> data(500, 0x77);
  host::x_pwrite(sim_, node_.client(), data.data(), data.size());
  host::x_fsync(sim_, node_.client());

  bool destaged = false;
  node_.device().PowerFail([&]() { destaged = true; });
  sim_.RunWhile([&]() { return destaged; });
  EXPECT_TRUE(node_.device().halted());
  EXPECT_NE(ReadRegister(kRegTransportStatus) & StatusBits::kHalted, 0u);

  // A halted device ignores traffic.
  uint8_t byte = 1;
  node_.fabric().FunctionalWrite(
      host::NodeLayout::kCmbBase + kRingWindowOffset, &byte, 1);
  EXPECT_EQ(node_.device().cmb().staging_occupancy(), 0u);

  node_.device().Reboot();
  EXPECT_FALSE(node_.device().halted());
  EXPECT_EQ(node_.device().epoch(), 1u);
  EXPECT_EQ(ReadRegister(kRegEpoch), 1u);
  EXPECT_EQ(ReadRegister(kRegLocalCredit), 0u);  // fresh fast side
}

// The default 16 KiB flash page carries this much stream payload.
constexpr uint64_t kPagePayload = 16352;

TEST_F(VillarsDeviceTest, TruncateBelowCursorRestartsDestageInNewEpoch) {
  // One full page goes to flash at once; the 100 B tail waits on the
  // latency timer when the truncate cuts below both.
  std::vector<uint8_t> data(kPagePayload + 100, 0x5A);
  host::x_pwrite(sim_, node_.client(), data.data(), data.size());
  host::x_fsync(sim_, node_.client());
  VillarsDevice& device = node_.device();
  ASSERT_EQ(device.destage().destage_cursor(), kPagePayload);
  ASSERT_EQ(device.destage().destaged(), 0u);

  device.TruncateLog(10);
  sim_.RunFor(sim::Ms(2));
  EXPECT_EQ(device.epoch(), 1u);
  EXPECT_EQ(device.destage().destaged(), 10u);
  EXPECT_EQ(device.destage().stats().stream_bytes, 10u);
  EXPECT_EQ(device.destage().stats().pages_written, 1u);
  EXPECT_EQ(device.cmb().destaged_floor(), 10u);
}

TEST_F(VillarsDeviceTest, RebootDropsTheCompletionOfAnInFlightPage) {
  std::vector<uint8_t> data(kPagePayload, 0x3C);
  host::x_pwrite(sim_, node_.client(), data.data(), data.size());
  host::x_fsync(sim_, node_.client());
  VillarsDevice& device = node_.device();
  ASSERT_EQ(device.destage().destage_cursor(), kPagePayload);
  ASSERT_EQ(device.destage().destaged(), 0u);  // the page is in flight

  device.CrashHard();
  device.Reboot();
  sim_.RunFor(sim::Ms(2));
  EXPECT_EQ(device.cmb().local_credit(), 0u);
  EXPECT_EQ(device.cmb().destaged_floor(), 0u);
  EXPECT_EQ(device.destage().destaged(), 0u);
  EXPECT_EQ(device.destage().stats().pages_written, 0u);
}

TEST_F(VillarsDeviceTest, RingWindowIsReadable) {
  std::vector<uint8_t> data = {9, 8, 7, 6};
  host::x_pwrite(sim_, node_.client(), data.data(), data.size());
  host::x_fsync(sim_, node_.client());
  uint8_t out[4] = {0};
  ASSERT_TRUE(
      node_.fabric()
          .FunctionalRead(host::NodeLayout::kCmbBase + kRingWindowOffset,
                          out, 4)
          .ok());
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[3], 6);
}

TEST_F(VillarsDeviceTest, ShadowMailboxWritesReachTransport) {
  uint64_t value = 424242;
  uint8_t raw[8];
  std::memcpy(raw, &value, 8);
  ASSERT_TRUE(node_.fabric()
                  .FunctionalWrite(
                      host::NodeLayout::kCmbBase + kRegShadowBase + 8, raw, 8)
                  .ok());
  EXPECT_EQ(node_.device().transport().shadow_counter(1), 424242u);
  EXPECT_EQ(ReadRegister(kRegShadowBase + 8), 424242u);
}

}  // namespace
}  // namespace xssd::core
