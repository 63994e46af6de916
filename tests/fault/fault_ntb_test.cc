// Injected NTB link faults and the transport-level healing on top:
// adapter drop/stall semantics, retransmit-with-backoff reconvergence, and
// degraded-mode entry/exit.

#include <gtest/gtest.h>

#include <cstring>

#include "fault/fault_injector.h"
#include "host/node.h"
#include "host/xcalls.h"
#include "ntb/ntb.h"

namespace xssd {
namespace {

/// Records MMIO traffic on a remote fabric.
class SinkDevice : public pcie::MmioDevice {
 public:
  explicit SinkDevice(size_t size) : memory(size, 0) {}
  void OnMmioWrite(uint64_t offset, const uint8_t* data,
                   size_t len) override {
    std::memcpy(memory.data() + offset, data, len);
    ++writes;
    last_write_at = 0;
  }
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override {
    std::memcpy(out, memory.data() + offset, len);
  }
  std::vector<uint8_t> memory;
  int writes = 0;
  sim::SimTime last_write_at = 0;
};

fault::FaultPlan LinkPlan(fault::FaultKind kind, sim::SimTime at,
                          sim::SimTime duration, sim::SimTime delay = 0) {
  fault::FaultPlan plan;
  plan.name = "link";
  fault::FaultSpec spec;
  spec.kind = kind;
  spec.at = at;
  spec.duration = duration;
  spec.delay = delay;
  plan.faults.push_back(spec);
  return plan;
}

TEST(FaultNtbAdapterTest, LinkDownDropsForwardedWritesSilently) {
  sim::Simulator sim;
  pcie::PcieFabric local(&sim, pcie::FabricConfig{}, "local");
  pcie::PcieFabric remote(&sim, pcie::FabricConfig{}, "remote");
  ntb::NtbAdapter adapter(&sim, ntb::NtbConfig{}, "ntb");
  SinkDevice sink(8192);
  ASSERT_TRUE(local.AddMmioRegion(0x1000, 4096, &adapter, "win").ok());
  ASSERT_TRUE(remote.AddMmioRegion(0x9000, 8192, &sink, "sink").ok());
  ASSERT_TRUE(adapter.AddWindow(0, 4096, &remote, 0x9000).ok());

  fault::FaultInjector injector(
      &sim, LinkPlan(fault::FaultKind::kNtbLinkDown, 0, sim::Us(100)), 1);
  adapter.set_fault_injector(&injector);

  uint8_t data[64] = {0x5A};
  bool posted = false;
  local.HostWrite(0x1000, data, 64, 64, [&]() { posted = true; });
  sim.Run();

  // The posted write completes from the sender's view — the loss is
  // invisible until the shadow counters stop moving.
  EXPECT_TRUE(posted);
  EXPECT_EQ(sink.writes, 0);
  EXPECT_EQ(adapter.dropped_writes(), 1u);
  EXPECT_EQ(adapter.dropped_payload_bytes(), 64u);
  // Dropped writes consume no cable bandwidth.
  EXPECT_EQ(adapter.forwarded_payload_bytes(), 0u);

  // After the flap the same write goes through.
  sim.RunFor(sim::Us(200));
  local.HostWrite(0x1000, data, 64, 64);
  sim.Run();
  EXPECT_EQ(sink.writes, 1);
}

TEST(FaultNtbAdapterTest, LinkStallDelaysDelivery) {
  auto arrival_time = [](sim::SimTime stall) {
    sim::Simulator sim;
    pcie::PcieFabric local(&sim, pcie::FabricConfig{}, "local");
    pcie::PcieFabric remote(&sim, pcie::FabricConfig{}, "remote");
    ntb::NtbAdapter adapter(&sim, ntb::NtbConfig{}, "ntb");
    SinkDevice sink(8192);
    EXPECT_TRUE(local.AddMmioRegion(0x1000, 4096, &adapter, "win").ok());
    EXPECT_TRUE(remote.AddMmioRegion(0x9000, 8192, &sink, "sink").ok());
    EXPECT_TRUE(adapter.AddWindow(0, 4096, &remote, 0x9000).ok());
    fault::FaultInjector injector(
        &sim,
        LinkPlan(fault::FaultKind::kNtbLinkStall, 0, sim::Us(100), stall), 1);
    if (stall > 0) adapter.set_fault_injector(&injector);
    uint8_t byte = 1;
    local.HostWrite(0x1000, &byte, 1, 64);
    sim.Run();
    EXPECT_EQ(sink.writes, 1);
    return sim.Now();
  };

  sim::SimTime clean = arrival_time(0);
  sim::SimTime stalled = arrival_time(sim::Us(9));
  EXPECT_EQ(stalled, clean + sim::Us(9));
}

core::VillarsConfig RetransmitConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  config.transport.retransmit_timeout = sim::Us(50);
  return config;
}

TEST(FaultNtbReplicationTest, FlapRetransmitReconvergesWithoutLossOrDup) {
  sim::Simulator sim;
  core::VillarsConfig config = RetransmitConfig();
  host::StorageNode primary(&sim, config, pcie::FabricConfig{}, "pri");
  host::StorageNode secondary(&sim, config, pcie::FabricConfig{}, "sec");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  // Drop every mirror write for the first 600 us — the whole append burst
  // below lands inside the flap. Only the retransmit path can heal it.
  fault::FaultInjector injector(
      &sim, LinkPlan(fault::FaultKind::kNtbLinkDown, 0, sim::Us(600)), 5);
  primary.ArmFaults(&injector);

  std::vector<uint8_t> wal(24000);
  for (size_t i = 0; i < wal.size(); ++i) {
    wal[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  ASSERT_EQ(host::x_pwrite(sim, primary.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  // Eager fsync can only return once the secondary holds every byte, i.e.
  // after the flap ends and retransmission catches it up.
  ASSERT_EQ(host::x_fsync(sim, primary.client()), 0);
  EXPECT_GE(sim.Now(), sim::Us(600));

  // Writes were really lost, and really re-mirrored.
  EXPECT_GT(primary.ntb().dropped_writes(), 0u);
  EXPECT_GE(primary.device().transport().retransmit_rounds(), 1u);
  EXPECT_GT(primary.device().transport().retransmitted_bytes(), 0u);

  // Reconvergence with zero lost and zero duplicate log bytes: the
  // secondary's credit equals the stream length exactly (duplicates would
  // have to extend past it; the interval set cannot double-count), its
  // shadow on the primary agrees, and the replica is bit-exact.
  EXPECT_EQ(secondary.device().cmb().local_credit(), wal.size());
  sim.RunFor(sim::Us(10));  // one more shadow update cycle
  EXPECT_EQ(primary.device().transport().shadow_counter(0), wal.size());
  EXPECT_EQ(primary.device().EffectiveCredit(), wal.size());
  std::vector<uint8_t> replica(wal.size());
  secondary.device().cmb().CopyOut(0, replica.data(), replica.size());
  EXPECT_EQ(replica, wal);
}

TEST(FaultNtbReplicationTest, LongFlapEntersAndExitsDegradedMode) {
  sim::Simulator sim;
  core::VillarsConfig config = RetransmitConfig();
  config.transport.degrade_timeout = sim::Us(300);
  host::StorageNode primary(&sim, config, pcie::FabricConfig{}, "pri");
  host::StorageNode secondary(&sim, config, pcie::FabricConfig{}, "sec");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  fault::FaultInjector injector(
      &sim, LinkPlan(fault::FaultKind::kNtbLinkDown, 0, sim::Ms(2)), 5);
  primary.ArmFaults(&injector);
  obs::MetricsRegistry registry;
  injector.SetMetrics(&registry);
  primary.EnableMetrics(&registry);

  std::vector<uint8_t> wal(10000, 0x6E);
  ASSERT_EQ(host::x_pwrite(sim, primary.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));

  // Deep inside the flap, past the degrade timeout: the primary gives up
  // waiting and falls back to local durability so logging can continue.
  sim.RunFor(sim::Ms(1));
  core::TransportModule& transport = primary.device().transport();
  EXPECT_TRUE(transport.degraded());
  EXPECT_EQ(transport.degraded_entries(), 1u);
  EXPECT_LT(transport.shadow_counter(0), wal.size());
  EXPECT_EQ(primary.device().EffectiveCredit(), wal.size());  // local fallback
  uint64_t word = transport.StatusWord(primary.device().cmb().local_credit());
  EXPECT_NE(word & core::StatusBits::kDegraded, 0u);

  // Link returns; retransmission catches the secondary up and degraded
  // mode ends on the shadow advance that closes the gap.
  sim.RunFor(sim::Ms(9));
  EXPECT_FALSE(transport.degraded());
  EXPECT_EQ(transport.shadow_counter(0), wal.size());
  word = transport.StatusWord(primary.device().cmb().local_credit());
  EXPECT_EQ(word & core::StatusBits::kDegraded, 0u);
  EXPECT_EQ(secondary.device().cmb().local_credit(), wal.size());
  EXPECT_EQ(registry.GetCounter("transport.degraded_entries")->value(), 1u);
  EXPECT_GT(registry.GetCounter("fault.ntb.dropped_writes")->value(), 0u);
}

}  // namespace
}  // namespace xssd
