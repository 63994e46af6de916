// Integration: replication across simulated hosts over NTB, configured
// purely through public interfaces (NTB windows + vendor admin commands).

#include <gtest/gtest.h>

#include "host/node.h"
#include "host/sync.h"
#include "host/xcalls.h"
#include "sim/random.h"

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

class ReplicationTest : public ::testing::Test {
 protected:
  void MakeNodes(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      nodes_.push_back(std::make_unique<host::StorageNode>(
          &sim_, SmallConfig(), pcie::FabricConfig{},
          "node" + std::to_string(i)));
      ASSERT_TRUE(nodes_.back()->Init().ok());
    }
  }

  Status SetupGroup(core::ReplicationProtocol protocol) {
    std::vector<host::StorageNode*> raw;
    for (auto& node : nodes_) raw.push_back(node.get());
    host::ReplicationGroup group(raw);
    return group.Setup(protocol, sim::UsF(0.8));
  }

  host::StorageNode& node(size_t i) { return *nodes_[i]; }

  sim::Simulator sim_;
  std::vector<std::unique_ptr<host::StorageNode>> nodes_;
};

TEST_F(ReplicationTest, EagerFsyncImpliesAllSecondariesPersisted) {
  MakeNodes(3);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kEager).ok());

  sim::Rng rng(3);
  std::vector<uint8_t> wal(20000);
  for (auto& b : wal) b = static_cast<uint8_t>(rng.Next());

  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim_, node(0).client()), 0);

  // The eager guarantee: at fsync return, every secondary's PM holds every
  // byte, bit-exact.
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_GE(node(i).device().cmb().local_credit(), wal.size());
    std::vector<uint8_t> replica(wal.size());
    node(i).device().cmb().CopyOut(0, replica.data(), replica.size());
    EXPECT_EQ(replica, wal) << "secondary " << i;
  }
}

TEST_F(ReplicationTest, EagerCreditGatedBySlowestSecondary) {
  MakeNodes(3);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kEager).ok());
  // Make secondary 2 very slow to report.
  node(2).device().transport().set_update_period(sim::Ms(5));

  std::vector<uint8_t> data(4000, 0x21);
  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), data.data(), data.size()),
            4000);
  sim_.RunFor(sim::Us(200));
  // Local + fast secondary are done, but the visible credit still lags.
  EXPECT_GE(node(0).device().cmb().local_credit(), 4000u);
  EXPECT_LT(node(0).device().EffectiveCredit(), 4000u);
  sim_.RunFor(sim::Ms(10));  // slow reporter finally updates
  EXPECT_GE(node(0).device().EffectiveCredit(), 4000u);
}

TEST_F(ReplicationTest, LazyDoesNotWaitForSecondaries) {
  MakeNodes(2);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kLazy).ok());
  node(1).device().transport().set_update_period(sim::Ms(100));  // mute

  std::vector<uint8_t> data(2000, 0x42);
  sim::SimTime start = sim_.Now();
  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), data.data(), data.size()),
            2000);
  ASSERT_EQ(host::x_fsync(sim_, node(0).client()), 0);
  // Lazy fsync returns on local persistence — far faster than the muted
  // secondary could ever report.
  EXPECT_LT(sim_.Now() - start, sim::Ms(50));
  // And the data still flows to the secondary eventually (mirrored).
  sim_.RunFor(sim::Ms(1));
  EXPECT_GE(node(1).device().cmb().local_credit(), 2000u);
}

TEST_F(ReplicationTest, ChainGatesOnTailOnly) {
  MakeNodes(3);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kChain).ok());
  // Slow down the *first* secondary; the tail (second) stays fast.
  node(1).device().transport().set_update_period(sim::Ms(50));

  std::vector<uint8_t> data(1000, 0x07);
  sim::SimTime start = sim_.Now();
  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), data.data(), data.size()),
            1000);
  ASSERT_EQ(host::x_fsync(sim_, node(0).client()), 0);
  EXPECT_LT(sim_.Now() - start, sim::Ms(25));  // tail gating only
}

TEST_F(ReplicationTest, SecondaryTailReadSeesShippedLog) {
  MakeNodes(2);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kEager).ok());

  std::vector<uint8_t> wal(5000);
  for (size_t i = 0; i < wal.size(); ++i) wal[i] = static_cast<uint8_t>(i);
  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), wal.data(), wal.size()),
            5000);
  ASSERT_EQ(host::x_fsync(sim_, node(0).client()), 0);

  // The standby reads the shipped log off its own conventional side
  // (Figure 1 right, step 3).
  std::vector<uint8_t> replayed(wal.size());
  ASSERT_EQ(host::x_pread(sim_, node(1).client(), node(1).driver(),
                          replayed.data(), replayed.size()),
            static_cast<ssize_t>(wal.size()));
  EXPECT_EQ(replayed, wal);
}

TEST_F(ReplicationTest, ShadowCountersVisibleInPrimaryRegisters) {
  MakeNodes(2);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kEager).ok());
  std::vector<uint8_t> data(3000, 0x69);
  host::x_pwrite(sim_, node(0).client(), data.data(), data.size());
  host::x_fsync(sim_, node(0).client());
  EXPECT_GE(node(0).device().transport().shadow_counter(0), 3000u);
}

TEST_F(ReplicationTest, StaticGroupFencesAStaleTermWriter) {
  MakeNodes(2);
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kLazy).ok());
  // A static group sets no term, so the primary pushes as member slot 0.
  // Once the secondary adopts term 2 with slot 1 as its writer, those
  // pushes come from a stale term and die at the intake alias.
  ASSERT_TRUE(host::AdminSync(node(1), core::SetTermCmd(2, 1)).ok());

  std::vector<uint8_t> data(2000, 0x5A);
  ASSERT_EQ(host::x_pwrite(sim_, node(0).client(), data.data(), data.size()),
            2000);
  sim_.RunFor(sim::Ms(1));
  EXPECT_GE(node(0).device().cmb().local_credit(), 2000u);
  EXPECT_GT(node(1).device().transport().fenced_writes(), 0u);
  EXPECT_EQ(node(1).device().cmb().local_credit(), 0u);
}

TEST_F(ReplicationTest, StalledSecondaryRaisesStatusBit) {
  core::VillarsConfig config = SmallConfig();
  config.transport.stall_timeout = sim::Ms(2);
  nodes_.push_back(std::make_unique<host::StorageNode>(
      &sim_, config, pcie::FabricConfig{}, "p"));
  nodes_.push_back(std::make_unique<host::StorageNode>(
      &sim_, config, pcie::FabricConfig{}, "s"));
  ASSERT_TRUE(nodes_[0]->Init().ok());
  ASSERT_TRUE(nodes_[1]->Init().ok());
  ASSERT_TRUE(SetupGroup(core::ReplicationProtocol::kEager).ok());

  // Kill the secondary entirely: mirrors arrive but it never reports.
  node(1).device().PowerFail([]() {});
  sim_.RunFor(sim::Ms(1));

  std::vector<uint8_t> data(500, 1);
  node(0).client().Append(data.data(), data.size(), [](Status) {});
  sim_.RunFor(sim::Ms(10));

  uint64_t word = node(0).device().transport().StatusWord(
      node(0).device().cmb().local_credit());
  EXPECT_NE(word & core::StatusBits::kReplicationStalled, 0u);
}

}  // namespace
}  // namespace xssd
