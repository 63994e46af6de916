#include "core/transport_module.h"

#include <gtest/gtest.h>

#include <cstring>

namespace xssd::core {
namespace {

/// Captures peer-write traffic landing on a fabric region.
class SinkDevice : public pcie::MmioDevice {
 public:
  void OnMmioWrite(uint64_t offset, const Bytes& data) override {
    writes.push_back({offset, data.ToVector()});
  }
  void OnMmioRead(uint64_t, uint8_t* out, size_t len) override {
    std::memset(out, 0, len);
  }
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> writes;
};

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : fabric_(&sim_, pcie::FabricConfig{}, "fabric"),
        transport_(&sim_, &fabric_, TransportConfig{}) {
    transport_.set_ring_bytes(4096);
    EXPECT_TRUE(fabric_.AddMmioRegion(0x10000, 0x10000, &sink_, "sink").ok());
  }

  sim::Simulator sim_;
  pcie::PcieFabric fabric_;
  SinkDevice sink_;
  TransportModule transport_;
};

TEST_F(TransportTest, StandaloneDoesNotMirror) {
  uint8_t data[16] = {0};
  transport_.OnCmbArrival(0, Bytes::Copy(data, 16));
  sim_.Run();
  EXPECT_TRUE(sink_.writes.empty());
}

TEST_F(TransportTest, PrimaryMirrorsToPeerRingWindow) {
  ASSERT_TRUE(transport_.AddPeerAt(0, 0x10000).ok());
  transport_.SetRole(Role::kPrimary);
  uint8_t data[16];
  for (int i = 0; i < 16; ++i) data[i] = static_cast<uint8_t>(i);
  transport_.OnCmbArrival(100, Bytes::Copy(data, 16));
  sim_.Run();
  ASSERT_EQ(sink_.writes.size(), 1u);
  // Member slot 0 (no term set) pushes through the peer's intake alias 0,
  // one 4096-byte ring past the host window.
  EXPECT_EQ(sink_.writes[0].first, kRingWindowOffset + 4096 + 100);
  EXPECT_EQ(sink_.writes[0].second[3], 3);
}

TEST_F(TransportTest, MirrorWrapsRingOffsets) {
  ASSERT_TRUE(transport_.AddPeerAt(0, 0x10000).ok());
  transport_.SetRole(Role::kPrimary);
  std::vector<uint8_t> data(200, 0x7E);
  // Stream offset 4000 in a 4096-byte ring: wraps after 96 bytes, to the
  // start of the same intake alias.
  transport_.OnCmbArrival(4000, Bytes(std::move(data)));
  sim_.Run();
  ASSERT_EQ(sink_.writes.size(), 2u);
  EXPECT_EQ(sink_.writes[0].first, kRingWindowOffset + 4096 + 4000);
  EXPECT_EQ(sink_.writes[0].second.size(), 96u);
  EXPECT_EQ(sink_.writes[1].first, kRingWindowOffset + 4096 + 0);
  EXPECT_EQ(sink_.writes[1].second.size(), 104u);
}

TEST_F(TransportTest, OneMirrorFlowPerPeer) {
  ASSERT_TRUE(transport_.AddPeerAt(0, 0x10000).ok());
  ASSERT_TRUE(transport_.AddPeerAt(1, 0x14000).ok());
  transport_.SetRole(Role::kPrimary);
  uint8_t data[8] = {1};
  transport_.OnCmbArrival(0, Bytes::Copy(data, 8));
  sim_.Run();
  EXPECT_EQ(sink_.writes.size(), 2u);  // both land in the same sink region
  EXPECT_EQ(transport_.mirrored_bytes(), 16u);
}

TEST_F(TransportTest, PeerLimitEnforced) {
  for (uint32_t i = 0; i < kMaxPeers; ++i) {
    EXPECT_TRUE(transport_.AddPeerAt(i, 0x10000 + i * 8).ok());
  }
  EXPECT_EQ(transport_.peer_count(), kMaxPeers);
  EXPECT_EQ(transport_.AddPeerAt(kMaxPeers, 0x19000).code(),
            StatusCode::kInvalidArgument);
  transport_.ClearPeers();
  EXPECT_EQ(transport_.peer_count(), 0u);
}

TEST_F(TransportTest, SecondarySendsCreditUpdatesEveryPeriod) {
  transport_.ConfigureSecondary(0x10008);
  transport_.SetRole(Role::kSecondary);
  transport_.OnLocalCredit(500);
  sim_.RunFor(sim::Us(10));
  // ~10us / 0.8us period => ~12 updates.
  EXPECT_GE(transport_.counter_updates_sent(), 10u);
  ASSERT_FALSE(sink_.writes.empty());
  uint64_t value = 0;
  std::memcpy(&value, sink_.writes.back().second.data(), 8);
  EXPECT_EQ(value, 500u);
  EXPECT_EQ(sink_.writes.back().first, 8u);  // region offset of mailbox
}

TEST_F(TransportTest, RoleChangeCancelsSecondaryTimer) {
  transport_.ConfigureSecondary(0x10008);
  transport_.SetRole(Role::kSecondary);
  sim_.RunFor(sim::Us(5));
  uint64_t sent = transport_.counter_updates_sent();
  transport_.SetRole(Role::kStandalone);
  sim_.RunFor(sim::Us(20));
  EXPECT_EQ(transport_.counter_updates_sent(), sent);
}

TEST_F(TransportTest, ShadowCountersAreMonotone) {
  transport_.OnShadowWrite(0, 100);
  transport_.OnShadowWrite(0, 50);  // stale update ignored
  EXPECT_EQ(transport_.shadow_counter(0), 100u);
  transport_.OnShadowWrite(0, 200);
  EXPECT_EQ(transport_.shadow_counter(0), 200u);
  transport_.OnShadowWrite(kMaxPeers + 1, 999);  // out of range ignored
}

TEST_F(TransportTest, EffectiveCreditPerProtocol) {
  ASSERT_TRUE(transport_.AddPeerAt(0, 0x10000).ok());
  ASSERT_TRUE(transport_.AddPeerAt(1, 0x14000).ok());
  transport_.SetRole(Role::kPrimary);
  transport_.OnShadowWrite(0, 80);
  transport_.OnShadowWrite(1, 30);

  transport_.set_protocol(ReplicationProtocol::kEager);
  EXPECT_EQ(transport_.EffectiveCredit(100), 30u);  // slowest secondary
  transport_.set_protocol(ReplicationProtocol::kLazy);
  EXPECT_EQ(transport_.EffectiveCredit(100), 100u);  // local only
  transport_.set_protocol(ReplicationProtocol::kChain);
  EXPECT_EQ(transport_.EffectiveCredit(100), 30u);  // tail = peer 1
  transport_.OnShadowWrite(1, 95);
  EXPECT_EQ(transport_.EffectiveCredit(100), 95u);
  // Effective credit never exceeds local.
  transport_.OnShadowWrite(1, 500);
  EXPECT_EQ(transport_.EffectiveCredit(100), 100u);
}

TEST_F(TransportTest, StandaloneEffectiveCreditIsLocal) {
  EXPECT_EQ(transport_.EffectiveCredit(77), 77u);
}

TEST_F(TransportTest, StatusWordEncodesRoleAndPeers) {
  ASSERT_TRUE(transport_.AddPeerAt(0, 0x10000).ok());
  transport_.SetRole(Role::kPrimary);
  uint64_t word = transport_.StatusWord(0);
  EXPECT_EQ(word & StatusBits::kRoleMask,
            static_cast<uint64_t>(Role::kPrimary));
  EXPECT_EQ((word & StatusBits::kPeerCountMask) >> StatusBits::kPeerCountShift,
            1u);
  EXPECT_EQ(word & StatusBits::kReplicationStalled, 0u);
}

TEST_F(TransportTest, StalledBitRaisedWhenSecondaryLagsTooLong) {
  TransportConfig config;
  config.stall_timeout = sim::Us(100);
  TransportModule transport(&sim_, &fabric_, config);
  transport.set_ring_bytes(4096);
  ASSERT_TRUE(transport.AddPeerAt(0, 0x10000).ok());
  transport.SetRole(Role::kPrimary);
  transport.OnShadowWrite(0, 10);
  sim_.RunFor(sim::Us(50));
  EXPECT_EQ(transport.StatusWord(100) & StatusBits::kReplicationStalled, 0u);
  sim_.RunFor(sim::Us(100));  // now past the stall timeout with lag
  EXPECT_NE(transport.StatusWord(100) & StatusBits::kReplicationStalled, 0u);
  // Progress clears it.
  transport.OnShadowWrite(0, 100);
  EXPECT_EQ(transport.StatusWord(100) & StatusBits::kReplicationStalled, 0u);
}

}  // namespace
}  // namespace xssd::core
