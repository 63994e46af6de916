#include "core/villars_device.h"

#include <gtest/gtest.h>

#include <cstring>

#include "host/sync.h"
#include "host/xlog_client.h"
#include "nvme/driver.h"
#include "obs/metrics.h"

namespace xssd::core {
namespace {

// A multi-tenant device: tenant A is partition 0, tenant B the one extra
// partition.
VillarsConfig TwoTenantConfig() {
  VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;

  config.cmb.ring_bytes = 64 * 1024;
  config.cmb.queue_bytes = 16 * 1024;
  config.destage.ring_start_lba = 0;
  config.destage.ring_lba_count = 32;

  PartitionConfig tenant_b;
  tenant_b.cmb.ring_bytes = 32 * 1024;
  tenant_b.cmb.queue_bytes = 8 * 1024;
  tenant_b.destage.ring_start_lba = 32;  // disjoint destage ring
  tenant_b.destage.ring_lba_count = 32;

  config.extra_partitions = {tenant_b};
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

  nvme::Completion Admin(const nvme::Command& cmd) {
    nvme::Completion result;
    bool got = false;
    driver_.Admin(cmd, [&](nvme::Completion cpl) {
      result = cpl;
      got = true;
    });
    sim_.RunWhile([&]() { return got; });
    return result;
  }

  CmbModule& cmb_b() { return device_.partition(1).cmb(); }

  sim::Simulator sim_;
  pcie::PcieFabric fabric_;
  VillarsDevice device_;
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
  EXPECT_EQ(device_.cmb().local_credit(), 3000u);
  EXPECT_EQ(cmb_b().local_credit(), 0u);  // isolated

  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  EXPECT_EQ(device_.cmb().local_credit(), 3000u);
  EXPECT_EQ(cmb_b().local_credit(), 1000u);
}

TEST_F(PartitionedTest, TenantsDataDoesNotCrossRings) {
  std::vector<uint8_t> a(500, 0xAA), b(500, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  std::vector<uint8_t> out(500);
  device_.cmb().CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, a);
  cmb_b().CopyOut(0, out.data(), 500);
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, TenantsDestageToDisjointLbaRanges) {
  std::vector<uint8_t> a(2000, 0xA1), b(2000, 0xB2);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  sim_.RunFor(sim::Ms(2));  // allow threshold destage for both
  EXPECT_EQ(device_.destage().destaged(), 2000u);
  EXPECT_EQ(device_.partition(1).destage().destaged(), 2000u);

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
  nvme::Command cmd = SetReplicationCmd(ReplicationProtocol::kLazy);
  cmd.cdw13 = 1;  // tenant B only
  ASSERT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(device_.partition(1).transport().protocol(),
            ReplicationProtocol::kLazy);
  EXPECT_EQ(device_.transport().protocol(), ReplicationProtocol::kEager);

  cmd.cdw13 = 9;  // no such partition
  EXPECT_FALSE(Admin(cmd).ok());
}

TEST_F(PartitionedTest, SetTermReachesOnlyTheAddressedPartition) {
  nvme::Command cmd = SetTermCmd(7, 0);  // term 7, writer slot 0
  cmd.cdw13 = 1;  // tenant B only
  ASSERT_TRUE(Admin(cmd).ok());

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
  device_.cmb().CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, a);
  cmb_b().CopyOut(0, out.data(), out.size());
  EXPECT_EQ(out, b);
}

TEST_F(PartitionedTest, BarLayoutIsBackToBack) {
  // Each partition: control page, host ring window, kMaxPeers intake
  // aliases.
  EXPECT_EQ(device_.partition_base(0), kCmb);
  EXPECT_EQ(device_.partition_base(1),
            kCmb + kCtrlPageBytes + 64 * 1024 * (1 + kMaxPeers));
  EXPECT_EQ(device_.cmb_bar_bytes(),
            2 * kCtrlPageBytes + (64 * 1024 + 32 * 1024) * (1 + kMaxPeers));
}

TEST_F(PartitionedTest, PowerEventsReachBothTenants) {
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());

  bool done = false;
  device_.PowerFail([&]() { done = true; });
  sim_.RunWhile([&]() { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(device_.partition(1).halted());
  EXPECT_EQ(device_.destage().destaged(), device_.cmb().local_credit());
  EXPECT_EQ(device_.partition(1).destage().destaged(),
            cmb_b().local_credit());
  EXPECT_EQ(cmb_b().local_credit(), 1000u);

  device_.Reboot();
  // A partition left halted would drop the append below for ever.
  ASSERT_FALSE(device_.partition(1).halted());
  for (size_t i = 0; i < device_.partition_count(); ++i) {
    EXPECT_EQ(device_.partition(i).destage().epoch(), 1u) << i;
    EXPECT_EQ(device_.partition(i).cmb().local_credit(), 0u) << i;
  }
  ASSERT_TRUE(client_b_->Reconnect().ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  EXPECT_EQ(cmb_b().local_credit(), 1000u);
  EXPECT_EQ(device_.cmb().local_credit(), 0u);
}

TEST_F(PartitionedTest, MetricsArePerPartition) {
  obs::MetricsRegistry registry;
  device_.EnableMetrics(&registry);
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());
  const obs::Counter* bytes_a = registry.FindCounter("cmb.append_bytes");
  const obs::Counter* bytes_b = registry.FindCounter("p1.cmb.append_bytes");
  ASSERT_NE(bytes_a, nullptr);
  ASSERT_NE(bytes_b, nullptr);
  EXPECT_EQ(bytes_a->value(), 3000u);
  EXPECT_EQ(bytes_b->value(), 1000u);
}

TEST_F(PartitionedTest, TruncateIsPerPartition) {
  std::vector<uint8_t> a(3000, 0xAA), b(1000, 0xBB);
  ASSERT_TRUE(AppendDurableSync(*client_a_, a).ok());
  ASSERT_TRUE(AppendDurableSync(*client_b_, b).ok());

  nvme::Command cmd = TruncateCmd(400);
  cmd.cdw13 = 1;  // tenant B only
  ASSERT_TRUE(Admin(cmd).ok());
  EXPECT_EQ(cmb_b().local_credit(), 400u);
  EXPECT_EQ(device_.cmb().local_credit(), 3000u);
}

}  // namespace
}  // namespace xssd::core
