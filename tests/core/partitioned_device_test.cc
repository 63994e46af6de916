#include "core/partitioned_device.h"

#include <gtest/gtest.h>

#include <cstring>

#include "host/sync.h"
#include "host/xlog_client.h"
#include "nvme/driver.h"

namespace xssd::core {
namespace {

PartitionedConfig TwoTenantConfig() {
  PartitionedConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;

  PartitionConfig tenant_a;
  tenant_a.cmb.ring_bytes = 64 * 1024;
  tenant_a.cmb.queue_bytes = 16 * 1024;
  tenant_a.destage.ring_start_lba = 0;
  tenant_a.destage.ring_lba_count = 32;

  PartitionConfig tenant_b;
  tenant_b.cmb.ring_bytes = 32 * 1024;
  tenant_b.cmb.queue_bytes = 8 * 1024;
  tenant_b.destage.ring_start_lba = 32;  // disjoint destage ring
  tenant_b.destage.ring_lba_count = 32;

  config.partitions = {tenant_a, tenant_b};
  return config;
}

constexpr uint64_t kBar0 = 0xF000'0000ull;
constexpr uint64_t kCmb = 0xE000'0000ull;

class PartitionedTest : public ::testing::Test {
 protected:
  PartitionedTest()
      : fabric_(&sim_, pcie::FabricConfig{}, "fabric"),
        device_(&sim_, &fabric_, TwoTenantConfig(), "mt"),
        driver_(&sim_, &fabric_, &device_.controller(), kBar0) {
    EXPECT_TRUE(device_.Attach(kBar0, kCmb).ok());
    EXPECT_TRUE(driver_.Initialize().ok());
    client_a_ = std::make_unique<host::XLogClient>(
        &sim_, &fabric_, device_.partition_base(0));
    client_b_ = std::make_unique<host::XLogClient>(
        &sim_, &fabric_, device_.partition_base(1));
    EXPECT_TRUE(client_a_->Setup().ok());
    EXPECT_TRUE(client_b_->Setup().ok());
  }

  Status AppendDurableSync(host::XLogClient& client,
                           const std::vector<uint8_t>& data) {
    host::SyncRunner runner(&sim_);
    return runner.Await([&](std::function<void(Status)> done) {
      client.AppendDurable(data.data(), data.size(), std::move(done));
    });
  }

  sim::Simulator sim_;
  pcie::PcieFabric fabric_;
  PartitionedVillars device_;
  nvme::Driver driver_;
  std::unique_ptr<host::XLogClient> client_a_;
  std::unique_ptr<host::XLogClient> client_b_;
};

TEST_F(PartitionedTest, ClientsSeeTheirOwnGeometry) {
  EXPECT_EQ(client_a_->ring_bytes(), 64u * 1024);
  EXPECT_EQ(client_a_->queue_bytes(), 16u * 1024);
  EXPECT_EQ(client_b_->ring_bytes(), 32u * 1024);
  EXPECT_EQ(client_b_->queue_bytes(), 8u * 1024);
}

TEST_F(PartitionedTest, IndependentCreditCounters) {
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  EXPECT_EQ(device_.cmb(0).local_credit(), 3000u);
  EXPECT_EQ(device_.cmb(1).local_credit(), 0u);  // isolated

  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  EXPECT_EQ(device_.cmb(0).local_credit(), 3000u);
  EXPECT_EQ(device_.cmb(1).local_credit(), 1000u);
}

TEST_F(PartitionedTest, TenantsDataDoesNotCrossRings) {
  std::vector<uint8_t> a(500, 0xAA), b(500, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  std::vector<uint8_t> out(500);
  device_.cmb(0).CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, a);
  device_.cmb(1).CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, TenantsDestageToDisjointLbaRanges) {
  std::vector<uint8_t> a(2000, 0xA1), b(2000, 0xB2);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  sim_.RunFor(sim::Ms(2));  // allow threshold destage for both
  EXPECT_EQ(device_.destage(0).destaged(), 2000u);
  EXPECT_EQ(device_.destage(1).destaged(), 2000u);

  // Each tenant reads its own destaged tail via the shared block device.
  std::vector<uint8_t> tail(2000);
  host::SyncRunner runner(&sim_);
  auto read_tail = [&](host::XLogClient& client) {
    return runner.AwaitValue<std::vector<uint8_t>>(
        [&](std::function<void(Status, std::vector<uint8_t>)> done) {
          client.ReadTail(&driver_, 2000, std::move(done));
        });
  };
  auto got_a = read_tail(*client_a_);
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(*got_a, a);
  auto got_b = read_tail(*client_b_);
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(*got_b, b);
}

TEST_F(PartitionedTest, VendorCommandsTargetPartitionByCdw13) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetReplication);
  cmd.cdw10 = static_cast<uint32_t>(ReplicationProtocol::kLazy);
  cmd.cdw13 = 1;  // tenant B only
  bool got = false;
  nvme::Completion result;
  driver_.Admin(cmd, [&](nvme::Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(device_.transport(1).protocol(), ReplicationProtocol::kLazy);
  EXPECT_EQ(device_.transport(0).protocol(), ReplicationProtocol::kEager);

  cmd.cdw13 = 9;  // no such partition
  got = false;
  driver_.Admin(cmd, [&](nvme::Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  EXPECT_FALSE(result.ok());
}

TEST_F(PartitionedTest, SetTermReachesOnlyTheAddressedPartition) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetTerm);
  cmd.cdw10 = 7;  // term
  cmd.cdw11 = 0;  // writer slot
  cmd.cdw13 = 1;  // tenant B only
  bool got = false;
  nvme::Completion result;
  driver_.Admin(cmd, [&](nvme::Completion cpl) {
    result = cpl;
    got = true;
  });
  sim_.RunWhile([&]() { return got; });
  ASSERT_TRUE(result.ok());

  auto read_term = [&](size_t partition) {
    uint8_t raw[8] = {0};
    EXPECT_TRUE(fabric_
                    .FunctionalRead(device_.partition_base(partition) +
                                        kRegTerm,
                                    raw, 8)
                    .ok());
    uint64_t value = 0;
    std::memcpy(&value, raw, 8);
    return value;
  };
  EXPECT_EQ(read_term(1), 7u);
  EXPECT_EQ(read_term(0), 0u);
}

TEST_F(PartitionedTest, ConcurrentTenantsInterleaveSafely) {
  // Both tenants stream concurrently; bytes stay tenant-local.
  std::vector<uint8_t> a(20000), b(20000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint8_t>(i);
    b[i] = static_cast<uint8_t>(i ^ 0xFF);
  }
  bool done_a = false, done_b = false;
  client_a_->AppendDurable(a.data(), a.size(),
                           [&](Status s) { done_a = s.ok(); });
  client_b_->AppendDurable(b.data(), b.size(),
                           [&](Status s) { done_b = s.ok(); });
  sim_.RunWhile([&]() { return done_a && done_b; });
  ASSERT_TRUE(done_a && done_b);

  std::vector<uint8_t> out(20000);
  device_.cmb(0).CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, a);
  device_.cmb(1).CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, BarLayoutIsBackToBack) {
  EXPECT_EQ(device_.partition_base(0), kCmb);
  EXPECT_EQ(device_.partition_base(1),
            kCmb + kCtrlPageBytes + 64 * 1024);
  EXPECT_EQ(device_.cmb_bar_bytes(),
            2 * kCtrlPageBytes + 64 * 1024 + 32 * 1024);
}

}  // namespace
}  // namespace xssd::core
