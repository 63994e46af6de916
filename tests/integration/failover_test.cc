// Integration: failover and device-lifetime scenarios — promotion by admin
// command after a primary loss (§7.1), and recovery across multiple
// crash/reboot epochs.

#include <gtest/gtest.h>

#include <cstring>

#include "host/node.h"
#include "host/recovery.h"
#include "host/sync.h"
#include "host/xcalls.h"

namespace xssd {
namespace {

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  return config;
}

Status AdminSetRole(host::StorageNode& node, core::Role role) {
  return host::AdminSync(node, core::SetRoleCmd(role, 0));
}

TEST(Failover, SecondaryPromotesAndServesWrites) {
  sim::Simulator sim;
  host::StorageNode primary(&sim, SmallConfig(), pcie::FabricConfig{}, "p");
  host::StorageNode secondary(&sim, SmallConfig(), pcie::FabricConfig{},
                              "s");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  // Ship a WAL, then lose the primary.
  std::vector<uint8_t> wal(6000);
  for (size_t i = 0; i < wal.size(); ++i) wal[i] = static_cast<uint8_t>(i);
  ASSERT_EQ(host::x_pwrite(sim, primary.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim, primary.client()), 0);

  primary.device().PowerFail([]() {});
  sim.RunFor(sim::Ms(5));

  // The standby has the full log locally; promote it (§7.1: promotion is
  // the database's decision, done via the admin interface).
  std::vector<uint8_t> replica(wal.size());
  secondary.device().cmb().CopyOut(0, replica.data(), replica.size());
  EXPECT_EQ(replica, wal);
  ASSERT_TRUE(AdminSetRole(secondary, core::Role::kPrimary).ok());
  EXPECT_EQ(secondary.device().transport().role(), core::Role::kPrimary);

  // The new primary's client adopts the replicated tail, then accepts and
  // persists new writes (no peers configured, so its credit is local).
  ASSERT_TRUE(secondary.client().ResumeAtDeviceTail().ok());
  EXPECT_EQ(secondary.client().written(), wal.size());
  std::vector<uint8_t> more(800, 0x44);
  ASSERT_EQ(host::x_pwrite(sim, secondary.client(), more.data(),
                           more.size()),
            800);
  ASSERT_EQ(host::x_fsync(sim, secondary.client()), 0);
  EXPECT_GE(secondary.device().cmb().local_credit(), wal.size() + 800);
}

TEST(Failover, DemotionBackToSecondaryStopsLocalCommitAuthority) {
  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "n");
  ASSERT_TRUE(node.Init().ok());
  ASSERT_TRUE(AdminSetRole(node, core::Role::kPrimary).ok());
  ASSERT_TRUE(AdminSetRole(node, core::Role::kSecondary).ok());
  EXPECT_EQ(node.device().transport().role(), core::Role::kSecondary);
  ASSERT_TRUE(AdminSetRole(node, core::Role::kStandalone).ok());
  EXPECT_EQ(node.device().transport().role(), core::Role::kStandalone);
}

TEST(MultiEpoch, RecoveryPicksNewestEpoch) {
  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "n");
  ASSERT_TRUE(node.Init().ok());

  // Epoch 0: write and crash.
  std::vector<uint8_t> old_wal(3000, 0x0A);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), old_wal.data(),
                           old_wal.size()),
            3000);
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  bool destaged = false;
  node.device().PowerFail([&]() { destaged = true; });
  sim.RunWhile([&]() { return destaged; });
  node.device().Reboot();
  ASSERT_EQ(node.device().epoch(), 1u);

  // Epoch 1: a fresh client writes a new log; crash again.
  host::XLogClient fresh(&sim, &node.fabric(), host::NodeLayout::kCmbBase);
  ASSERT_TRUE(fresh.Setup().ok());
  std::vector<uint8_t> new_wal(2000, 0x1B);
  {
    host::SyncRunner runner(&sim);
    ASSERT_TRUE(runner
                    .Await([&](std::function<void(Status)> done) {
                      fresh.AppendDurable(new_wal.data(), new_wal.size(),
                                          std::move(done));
                    })
                    .ok());
  }
  destaged = false;
  node.device().PowerFail([&]() { destaged = true; });
  sim.RunWhile([&]() { return destaged; });
  node.device().Reboot();
  ASSERT_EQ(node.device().epoch(), 2u);

  // Recovery returns the *newest* epoch's stream only.
  Result<host::RecoveredLog> recovered = host::RecoverLog(
      sim, node.driver(), node.device().destage().ring_start_lba(),
      node.device().destage().ring_lba_count());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->epoch, 1u);  // the epoch that wrote the newest pages
  EXPECT_EQ(recovered->start_offset, 0u);
  EXPECT_EQ(recovered->data.size(), new_wal.size());
  EXPECT_EQ(recovered->data, new_wal);
}

TEST(MultiEpoch, HaltedDeviceRejectsTrafficUntilReboot) {
  sim::Simulator sim;
  host::StorageNode node(&sim, SmallConfig(), pcie::FabricConfig{}, "n");
  ASSERT_TRUE(node.Init().ok());

  bool destaged = false;
  node.device().PowerFail([&]() { destaged = true; });
  sim.RunWhile([&]() { return destaged; });

  std::vector<uint8_t> data(100, 1);
  node.client().Append(data.data(), data.size(), [](Status) {});
  sim.RunFor(sim::Ms(1));
  EXPECT_EQ(node.device().cmb().local_credit(), 0u);  // dropped

  node.device().Reboot();
  host::XLogClient fresh(&sim, &node.fabric(), host::NodeLayout::kCmbBase);
  ASSERT_TRUE(fresh.Setup().ok());
  host::SyncRunner runner(&sim);
  ASSERT_TRUE(runner
                  .Await([&](std::function<void(Status)> done) {
                    fresh.AppendDurable(data.data(), data.size(),
                                        std::move(done));
                  })
                  .ok());
  EXPECT_EQ(node.device().cmb().local_credit(), 100u);
}

}  // namespace
}  // namespace xssd
