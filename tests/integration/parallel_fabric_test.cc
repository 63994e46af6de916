// Integration: two storage nodes on separate PCIe fabrics, replicating
// over NTB on one simulator, run under both scheduler backends. The wheel
// must reproduce the reference heap exactly: bit-identical replica
// contents, the same shadow-counter sequence, the same virtual clock, the
// same event count.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "host/node.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd {
namespace {

using Backend = sim::Simulator::SchedulerBackend;

core::VillarsConfig SmallConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  return config;
}

struct StreamResult {
  std::vector<uint64_t> shadows;   // primary-side shadow counter sequence
  std::vector<uint8_t> replica;    // secondary CMB image
  uint64_t written = 0;
  uint64_t ntb_wire_bytes = 0;     // secondary -> primary counter traffic
  sim::SimTime final_now = 0;
  uint64_t executed = 0;
};

StreamResult RunReplicatedStream(Backend backend) {
  sim::Simulator sim(backend);
  host::StorageNode primary(&sim, SmallConfig(), pcie::FabricConfig{},
                            "pri");
  host::StorageNode secondary(&sim, SmallConfig(), pcie::FabricConfig{},
                              "sec");
  EXPECT_TRUE(primary.Init().ok());
  EXPECT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  EXPECT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  StreamResult out;
  primary.device().transport().SetShadowHook(
      [&](uint32_t, uint64_t value) { out.shadows.push_back(value); });

  std::vector<uint8_t> entry(128);
  for (size_t i = 0; i < entry.size(); ++i) {
    entry[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  int remaining = 200;
  std::function<void()> writer = [&]() {
    if (remaining == 0) return;
    --remaining;
    primary.client().Append(entry.data(), entry.size(), [](Status) {});
    sim.Schedule(sim::Us(2), writer);
  };
  sim.Schedule(0, writer);
  sim.RunFor(sim::Ms(5));

  out.written = primary.client().written();
  out.replica.resize(out.written);
  secondary.device().cmb().CopyOut(0, out.replica.data(),
                                   out.replica.size());
  out.ntb_wire_bytes = secondary.ntb().forwarded_wire_bytes();
  out.final_now = sim.Now();
  out.executed = sim.executed_events();
  return out;
}

TEST(ParallelFabricTest, WheelAndHeapProduceIdenticalReplication) {
  StreamResult wheel = RunReplicatedStream(Backend::kWheel);
  StreamResult heap = RunReplicatedStream(Backend::kHeap);

  ASSERT_EQ(wheel.written, 200u * 128u);
  ASSERT_FALSE(wheel.shadows.empty());
  EXPECT_EQ(wheel.written, heap.written);
  EXPECT_EQ(wheel.final_now, heap.final_now);
  EXPECT_EQ(wheel.executed, heap.executed);
  EXPECT_EQ(wheel.ntb_wire_bytes, heap.ntb_wire_bytes);
  ASSERT_EQ(wheel.shadows, heap.shadows);
  ASSERT_EQ(wheel.replica, heap.replica);
  // The replica holds exactly the appended stream.
  std::vector<uint8_t> expect(wheel.written);
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<uint8_t>((i % 128) * 7 + 3);
  }
  EXPECT_EQ(wheel.replica, expect);
}

}  // namespace
}  // namespace xssd
