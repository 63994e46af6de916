// End of the uncorrectable-read escalation chain (media reliability x HA):
// a tail read that hits an uncorrectable destage-ring page on the primary
// pulls the lost stream extent out of a live replica's PM ring over the
// NTB window and completes with zero client-visible errors — while the
// device-side chain (FTL escalation, patrol scrubber) runs underneath.

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "ha/supervisor.h"
#include "host/node.h"
#include "host/xcalls.h"

namespace xssd::host {
namespace {

core::VillarsConfig FetchDeviceConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  ha::ReplicaSupervisor::ConfigureDevice(&config);
  // The patrol scrubber runs for the whole test (RunWhile-pumped helpers
  // keep the self-rearming tick from wedging any blocking call).
  config.scrub.enabled = true;
  config.scrub.scan_interval = sim::Ms(1);
  config.scrub.pages_per_sec = 8000.0;
  return config;
}

struct FetchCluster {
  sim::Simulator sim;
  StorageNode primary;
  StorageNode secondary;

  FetchCluster()
      : primary(&sim, FetchDeviceConfig(), pcie::FabricConfig{}, "pri"),
        secondary(&sim, FetchDeviceConfig(), pcie::FabricConfig{}, "sec") {
    EXPECT_TRUE(primary.Init().ok());
    EXPECT_TRUE(secondary.Init().ok());
  }
};

TEST(ReplicaFetch, UncorrectableRingReadCompletesFromReplicaOverNtb) {
  FetchCluster cluster;
  ReplicationGroup group({&cluster.primary, &cluster.secondary});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  // Arm the client's replica window: slot 1 (slot 0 carries the mirror
  // stream) mapped onto the secondary's CMB BAR.
  Result<uint64_t> window =
      cluster.primary.ConnectWindowTo(1, cluster.secondary);
  ASSERT_TRUE(window.ok());
  cluster.primary.client().SetReplicaWindow(*window);

  // Append and replicate a log prefix; the eager fsync ack means the
  // replica's PM ring persists every byte.
  std::vector<uint8_t> wal(20000);
  for (size_t i = 0; i < wal.size(); ++i) {
    wal[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  ASSERT_EQ(x_pwrite(cluster.sim, cluster.primary.client(), wal.data(),
                     wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(x_fsync(cluster.sim, cluster.primary.client()), 0);
  cluster.sim.RunFor(sim::Ms(5));  // destaging settles

  // From now every primary flash read is uncorrectable (the model of a
  // block that decayed past the retry ladder). The replica is untouched.
  fault::FaultPlan plan =
      fault::FaultPlanBuilder("dead-ring-read")
          .Window(fault::FaultKind::kFlashReadUncorrectable,
                  cluster.sim.Now(), fault::FaultSpec::kForever)
          .Build();
  fault::FaultInjector injector(&cluster.sim, plan, 5);
  cluster.primary.ArmFaults(&injector, /*install_crash_handler=*/false);

  // Tail-read the whole prefix. Every ring-slot read dies with
  // Corruption; the client must source each lost extent from the replica
  // and the caller must never see an error.
  std::vector<uint8_t> out(wal.size());
  ASSERT_EQ(x_pread(cluster.sim, cluster.primary.client(),
                    cluster.primary.driver(), out.data(), out.size()),
            static_cast<ssize_t>(out.size()));
  EXPECT_EQ(out, wal);  // byte-identical through the replica path

  EXPECT_GE(cluster.primary.client().replica_fetches(), 1u);
  EXPECT_GE(cluster.primary.client().replica_fetched_bytes(), wal.size());
  EXPECT_EQ(cluster.primary.client().read_deadline_failures(), 0u);
  // The device recorded the uncorrectable host reads. (No retire here:
  // the ring pages sit in a still-open frontier block, and only sealed
  // blocks escalate — scrub_test covers that half of the chain.)
  EXPECT_GE(cluster.primary.device().ftl().stats().uncorrectable_reads, 1u);
}

TEST(ReplicaFetch, DisarmedWindowSurfacesCorruption) {
  // Without SetReplicaWindow the seed behaviour is preserved: the
  // Corruption propagates to the caller instead of silently recovering.
  FetchCluster cluster;
  ReplicationGroup group({&cluster.primary, &cluster.secondary});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  std::vector<uint8_t> wal(8000, 0x5C);
  ASSERT_EQ(x_pwrite(cluster.sim, cluster.primary.client(), wal.data(),
                     wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(x_fsync(cluster.sim, cluster.primary.client()), 0);
  cluster.sim.RunFor(sim::Ms(5));

  fault::FaultPlan plan =
      fault::FaultPlanBuilder("dead-ring-read")
          .Window(fault::FaultKind::kFlashReadUncorrectable,
                  cluster.sim.Now(), fault::FaultSpec::kForever)
          .Build();
  fault::FaultInjector injector(&cluster.sim, plan, 5);
  cluster.primary.ArmFaults(&injector, /*install_crash_handler=*/false);

  Status status = Status::OK();
  bool fired = false;
  cluster.primary.client().ReadTail(&cluster.primary.driver(), 100,
                                    [&](Status s, std::vector<uint8_t>) {
                                      status = s;
                                      fired = true;
                                    });
  cluster.sim.RunWhile([&]() { return fired; });
  ASSERT_TRUE(fired);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(cluster.primary.client().replica_fetches(), 0u);
}

}  // namespace
}  // namespace xssd::host
