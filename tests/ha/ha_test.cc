// Replication-supervisor lifecycle tests: group formation, heartbeat
// failure detection, fenced failover (exactly-once promotion, stale-writer
// rejection), flap tolerance, membership remove/re-admit with resync, and
// the manual demotion/re-promotion round trips the supervisor automates.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "ha/supervisor.h"
#include "host/node.h"
#include "host/xcalls.h"

namespace xssd {
namespace {

core::VillarsConfig HaDeviceConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  ha::ReplicaSupervisor::ConfigureDevice(&config);
  return config;
}

/// An Init()ed cluster with a supervisor, ready for Setup()/Start().
struct Cluster {
  explicit Cluster(size_t n, ha::HaConfig ha_config = {}) {
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<host::StorageNode>(
          &sim, HaDeviceConfig(), pcie::FabricConfig{},
          "n" + std::to_string(i)));
      EXPECT_TRUE(nodes.back()->Init().ok());
    }
    std::vector<host::StorageNode*> raw;
    for (auto& node : nodes) raw.push_back(node.get());
    supervisor = std::make_unique<ha::ReplicaSupervisor>(&sim, raw,
                                                         ha_config);
  }

  uint64_t ReadReg(size_t i, uint64_t reg) {
    uint8_t raw[8] = {0};
    EXPECT_TRUE(nodes[i]
                    ->fabric()
                    .FunctionalRead(host::NodeLayout::kCmbBase + reg, raw, 8)
                    .ok());
    uint64_t value = 0;
    std::memcpy(&value, raw, 8);
    return value;
  }

  size_t CountLivePrimaries() {
    size_t primaries = 0;
    for (auto& node : nodes) {
      if (!node->device().halted() &&
          node->device().transport().role() == core::Role::kPrimary) {
        ++primaries;
      }
    }
    return primaries;
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<host::StorageNode>> nodes;
  std::unique_ptr<ha::ReplicaSupervisor> supervisor;
};

std::vector<uint8_t> Pattern(size_t len, uint64_t start = 0) {
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>((start + i) * 131 + 17);
  }
  return data;
}

TEST(ReplicaSupervisor, SetupFormsGroupAndReplicates) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.supervisor->Setup().ok());
  cluster.supervisor->Start();

  EXPECT_EQ(cluster.nodes[0]->device().transport().role(),
            core::Role::kPrimary);
  EXPECT_EQ(cluster.nodes[1]->device().transport().role(),
            core::Role::kSecondary);
  EXPECT_EQ(cluster.nodes[2]->device().transport().role(),
            core::Role::kSecondary);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.ReadReg(i, core::kRegTerm), 1u) << "member " << i;
  }

  std::vector<uint8_t> wal = Pattern(8192);
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[0]->client(),
                           wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(cluster.sim, cluster.nodes[0]->client()), 0);

  // Eager: the fsync ack means every member persisted the bytes.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(cluster.nodes[i]->device().cmb().local_credit(), wal.size())
        << "member " << i;
  }
  EXPECT_EQ(cluster.supervisor->promotions(), 0u);
  EXPECT_EQ(cluster.CountLivePrimaries(), 1u);
}

TEST(ReplicaSupervisor, KillPrimaryPromotesExactlyOnce) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.supervisor->Setup().ok());
  cluster.supervisor->Start();

  std::vector<uint8_t> wal = Pattern(12288);
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[0]->client(),
                           wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(cluster.sim, cluster.nodes[0]->client()), 0);

  cluster.nodes[0]->device().CrashHard();
  cluster.sim.RunFor(sim::Ms(3));

  EXPECT_EQ(cluster.supervisor->promotions(), 1u);
  EXPECT_EQ(cluster.CountLivePrimaries(), 1u);
  size_t leader = cluster.supervisor->leader_index();
  ASSERT_NE(leader, 0u);
  EXPECT_EQ(cluster.supervisor->term(), 2u);
  EXPECT_EQ(cluster.ReadReg(leader, core::kRegTerm), 2u);

  // Zero acked-byte loss: the promoted log holds every acknowledged byte,
  // bit for bit.
  ASSERT_GE(cluster.nodes[leader]->device().cmb().local_credit(),
            wal.size());
  std::vector<uint8_t> replica(wal.size());
  cluster.nodes[leader]->device().cmb().CopyOut(0, replica.data(),
                                                replica.size());
  EXPECT_EQ(replica, wal);

  // The new primary serves writes; with the remaining secondary fenced in
  // at term 2, eager acks flow again.
  std::vector<uint8_t> more = Pattern(4096, wal.size());
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[leader]->client(),
                           more.data(), more.size()),
            static_cast<ssize_t>(more.size()));
  EXPECT_EQ(host::x_fsync(cluster.sim, cluster.nodes[leader]->client()), 0);
  EXPECT_EQ(cluster.supervisor->promotions(), 1u);  // still exactly once
}

TEST(ReplicaSupervisor, StaleWriterIsFencedByTerm) {
  // Device-level fencing check, no cluster needed: a member whose
  // authorisation is one term old pushes into its intake alias and the
  // write dies at admission, visible in kRegFencedWrites.
  sim::Simulator sim;
  host::StorageNode node(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "fence");
  ASSERT_TRUE(node.Init().ok());

  // Term 2 is current; member slot 1 is the authorised writer.
  ASSERT_TRUE(host::AdminSync(node, core::SetTermCmd(2, 1)).ok());

  const uint64_t ring_bytes = node.device().config().cmb.ring_bytes;
  const uint64_t alias0 =
      host::NodeLayout::kCmbBase + core::IntakeAliasOffset(ring_bytes, 0);
  const uint64_t alias1 =
      host::NodeLayout::kCmbBase + core::IntakeAliasOffset(ring_bytes, 1);
  std::vector<uint8_t> stale(64, 0xEE);

  // Slot 0 last wrote under term 1 (never authorised at 2): fenced.
  ASSERT_TRUE(
      node.fabric().FunctionalWrite(alias0, stale.data(), stale.size()).ok());
  EXPECT_EQ(node.device().transport().fenced_writes(), 1u);
  sim.RunFor(sim::Ms(1));
  EXPECT_EQ(node.device().cmb().local_credit(), 0u);  // nothing admitted

  // Slot 1 holds the current term: admitted, persists normally.
  std::vector<uint8_t> fresh(64, 0x41);
  ASSERT_TRUE(
      node.fabric().FunctionalWrite(alias1, fresh.data(), fresh.size()).ok());
  sim.RunFor(sim::Ms(1));
  EXPECT_EQ(node.device().transport().fenced_writes(), 1u);
  EXPECT_GE(node.device().cmb().local_credit(), fresh.size());

  uint8_t raw[8] = {0};
  ASSERT_TRUE(node.fabric()
                  .FunctionalRead(
                      host::NodeLayout::kCmbBase + core::kRegFencedWrites,
                      raw, 8)
                  .ok());
  uint64_t fenced = 0;
  std::memcpy(&fenced, raw, 8);
  EXPECT_EQ(fenced, 1u);
}

TEST(ReplicaSupervisor, FlapShorterThanSuspicionWindowDoesNotPromote) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.supervisor->Setup().ok());
  cluster.supervisor->Start();

  // Two 100 µs outbound blackouts on the primary; the suspicion window is
  // 5 × 50 µs = 250 µs, so heartbeats resume before anyone acts.
  fault::FaultPlan plan =
      fault::FaultPlanBuilder("flap")
          .Window(fault::FaultKind::kNtbLinkDown, sim::Us(300), sim::Us(100))
          .Window(fault::FaultKind::kNtbLinkDown, sim::Us(900), sim::Us(100))
          .Build();
  fault::FaultInjector injector(&cluster.sim, plan, 7);
  cluster.nodes[0]->ntb().set_fault_injector(&injector);

  std::vector<uint8_t> wal = Pattern(8192);
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[0]->client(),
                           wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  cluster.sim.RunFor(sim::Ms(3));

  EXPECT_EQ(cluster.supervisor->promotions(), 0u);
  EXPECT_EQ(cluster.supervisor->removals(), 0u);
  EXPECT_EQ(cluster.supervisor->leader_index(), 0u);
  EXPECT_EQ(cluster.CountLivePrimaries(), 1u);
  // Dropped mirror bytes were healed by retransmit: the log still syncs.
  EXPECT_EQ(host::x_fsync(cluster.sim, cluster.nodes[0]->client()), 0);
}

TEST(ReplicaSupervisor, DeadSecondaryIsRemovedThenRejoinsAfterReboot) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.supervisor->Setup().ok());
  cluster.supervisor->Start();

  std::vector<uint8_t> wal = Pattern(8192);
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[0]->client(),
                           wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(cluster.sim, cluster.nodes[0]->client()), 0);

  cluster.nodes[2]->device().CrashHard();
  cluster.sim.RunFor(sim::Ms(2));
  EXPECT_EQ(cluster.supervisor->removals(), 1u);
  EXPECT_EQ(cluster.supervisor->promotions(), 0u);  // leader is fine

  // Eager progress resumes with the surviving secondary alone.
  std::vector<uint8_t> more = Pattern(8192, wal.size());
  ASSERT_EQ(host::x_pwrite(cluster.sim, cluster.nodes[0]->client(),
                           more.data(), more.size()),
            static_cast<ssize_t>(more.size()));
  ASSERT_EQ(host::x_fsync(cluster.sim, cluster.nodes[0]->client()), 0);

  // The member comes back empty (fresh epoch) and is re-admitted; the
  // retransmit path streams the whole log back until it converges.
  cluster.nodes[2]->device().Reboot();
  cluster.sim.RunFor(sim::Ms(5));
  EXPECT_GE(cluster.supervisor->joins(), 1u);
  const uint64_t total = wal.size() + more.size();
  EXPECT_GE(cluster.nodes[2]->device().cmb().local_credit(), total);
  std::vector<uint8_t> replica(total);
  cluster.nodes[2]->device().cmb().CopyOut(0, replica.data(), total);
  std::vector<uint8_t> expect = wal;
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_EQ(replica, expect);
}

TEST(ReplicaSupervisor, SetupRejectsUnpreparedDeviceConfigs) {
  sim::Simulator sim;
  core::VillarsConfig plain;  // retransmit off
  plain.geometry.channels = 2;
  plain.geometry.dies_per_channel = 2;
  plain.geometry.blocks_per_plane = 16;
  plain.geometry.pages_per_block = 32;
  plain.destage.ring_lba_count = 64;
  host::StorageNode a(&sim, plain, pcie::FabricConfig{}, "a");
  host::StorageNode b(&sim, plain, pcie::FabricConfig{}, "b");
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  ha::ReplicaSupervisor supervisor(&sim, {&a, &b}, ha::HaConfig{});
  Status status = supervisor.Setup();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

// An update period past cdw10's 32 bits would be truncated; zero periods
// would make a credit or heartbeat tick reschedule itself at the same
// nanosecond forever.
TEST(ReplicaSupervisor, SetupRejectsUnusablePeriods) {
  ha::HaConfig long_update;
  long_update.update_period = sim::Sec(5);
  ha::HaConfig no_update;
  no_update.update_period = 0;
  ha::HaConfig no_heartbeat;
  no_heartbeat.heartbeat_period = 0;
  for (const ha::HaConfig& config : {long_update, no_update, no_heartbeat}) {
    Cluster cluster(2, config);
    Status status = cluster.supervisor->Setup();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(ReplicaSupervisor, SetupRejectsMismatchedRings) {
  // A primary places mirrored bytes by its own ring size and a receiver
  // infers their stream offsets by its own: the sizes must agree.
  sim::Simulator sim;
  core::VillarsConfig larger = HaDeviceConfig();
  larger.cmb.ring_bytes = 2 * larger.cmb.ring_bytes;
  host::StorageNode n0(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "n0");
  host::StorageNode n1(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "n1");
  host::StorageNode n2(&sim, larger, pcie::FabricConfig{}, "n2");
  ASSERT_TRUE(n0.Init().ok());
  ASSERT_TRUE(n1.Init().ok());
  ASSERT_TRUE(n2.Init().ok());
  ha::ReplicaSupervisor supervisor(&sim, {&n0, &n1, &n2}, ha::HaConfig{});
  Status status = supervisor.Setup();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("member 2"), std::string::npos)
      << status.ToString();
}

TEST(ReplicationGroupErrors, SetupRejectsMismatchedRings) {
  sim::Simulator sim;
  core::VillarsConfig smaller = HaDeviceConfig();
  smaller.cmb.ring_bytes = smaller.cmb.ring_bytes / 2;
  host::StorageNode primary(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "p");
  host::StorageNode secondary(&sim, smaller, pcie::FabricConfig{}, "s");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  Status status = group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("member 1"), std::string::npos)
      << status.ToString();
}

// SetUpdatePeriodCmd carries the period in cdw10's 32 bits of ns: a 5 s
// period used to reach the secondary as 705,032,704 ns. A zero period would
// make the secondary's credit tick reschedule itself at the same
// nanosecond forever.
TEST(ReplicationGroupErrors, SetupRejectsUnusableUpdatePeriods) {
  for (sim::SimTime period : {sim::Sec(5), sim::SimTime{0}}) {
    sim::Simulator sim;
    host::StorageNode primary(&sim, HaDeviceConfig(), pcie::FabricConfig{},
                              "p");
    host::StorageNode secondary(&sim, HaDeviceConfig(), pcie::FabricConfig{},
                                "s");
    ASSERT_TRUE(primary.Init().ok());
    ASSERT_TRUE(secondary.Init().ok());
    const sim::SimTime before =
        secondary.device().transport().update_period();
    host::ReplicationGroup group({&primary, &secondary});
    Status status = group.Setup(core::ReplicationProtocol::kEager, period);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << period << " ns: " << status.ToString();
    EXPECT_EQ(secondary.device().transport().update_period(), before);
  }
}

TEST(ReplicationGroupErrors, DeviceRefusesAZeroUpdatePeriod) {
  sim::Simulator sim;
  host::StorageNode node(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "n");
  ASSERT_TRUE(node.Init().ok());
  const sim::SimTime before = node.device().transport().update_period();
  EXPECT_FALSE(host::AdminSync(node, core::SetUpdatePeriodCmd(0)).ok());
  EXPECT_EQ(node.device().transport().update_period(), before);
  EXPECT_TRUE(host::AdminSync(node, core::SetUpdatePeriodCmd(UINT32_MAX)).ok());
  EXPECT_EQ(node.device().transport().update_period(), sim::Ns(UINT32_MAX));
}

TEST(ReplicationGroupErrors, SetupRejectsBadProtocol) {
  sim::Simulator sim;
  host::StorageNode primary(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "p");
  host::StorageNode secondary(&sim, HaDeviceConfig(), pcie::FabricConfig{},
                              "s");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  host::ReplicationGroup group({&primary, &secondary});
  // The device validates the protocol dword and fails the admin command;
  // Setup surfaces it instead of leaving a half-configured group.
  Status status = group.Setup(static_cast<core::ReplicationProtocol>(9),
                              sim::UsF(0.8));
  EXPECT_FALSE(status.ok()) << status.ToString();
}

TEST(ReplicationGroupErrors, SetupFailsWhenPeerDiesMidSetup) {
  sim::Simulator sim;
  host::StorageNode primary(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "p");
  host::StorageNode secondary(&sim, HaDeviceConfig(), pcie::FabricConfig{},
                              "s");
  ASSERT_TRUE(primary.Init().ok());
  ASSERT_TRUE(secondary.Init().ok());
  // The peer wedges before role assignment: its admin path answers with an
  // internal error (the model of a driver-side timeout), and Setup fails
  // rather than declaring a group containing a dead member.
  secondary.device().CrashHard();
  host::ReplicationGroup group({&primary, &secondary});
  Status status = group.Setup(core::ReplicationProtocol::kEager,
                              sim::UsF(0.8));
  EXPECT_FALSE(status.ok());
}

TEST(ReplicationGroupErrors, DemotionRepromotionRoundTrip) {
  // Manual (supervisor-less) role round trip: p0 -> demoted -> re-promoted,
  // with replication live in both directions along the way.
  sim::Simulator sim;
  host::StorageNode p0(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "p0");
  host::StorageNode s1(&sim, HaDeviceConfig(), pcie::FabricConfig{}, "s1");
  ASSERT_TRUE(p0.Init().ok());
  ASSERT_TRUE(s1.Init().ok());
  host::ReplicationGroup group({&p0, &s1});
  ASSERT_TRUE(
      group.Setup(core::ReplicationProtocol::kEager, sim::UsF(0.8)).ok());

  std::vector<uint8_t> wal = Pattern(6000);
  ASSERT_EQ(host::x_pwrite(sim, p0.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim, p0.client()), 0);

  // Swap roles: s1 leads, p0 follows (shadow mailbox slot 0 on s1).
  const uint64_t window = host::NodeLayout::kNtbBase;  // slot 0, both ways
  const nvme::Command follow =
      core::SetRoleCmd(core::Role::kSecondary, window + core::kRegShadowBase);
  const nvme::Command add = core::AddPeerCmd(0, window);
  const nvme::Command lead = core::SetRoleCmd(core::Role::kPrimary, 0);
  ASSERT_TRUE(host::AdminSync(p0, follow).ok());
  ASSERT_TRUE(host::AdminSync(s1, add).ok());
  ASSERT_TRUE(host::AdminSync(s1, lead).ok());
  ASSERT_TRUE(s1.client().Reconnect().ok());
  EXPECT_EQ(s1.client().written(), wal.size());

  std::vector<uint8_t> second = Pattern(4000, wal.size());
  ASSERT_EQ(host::x_pwrite(sim, s1.client(), second.data(), second.size()),
            static_cast<ssize_t>(second.size()));
  ASSERT_EQ(host::x_fsync(sim, s1.client()), 0);
  EXPECT_GE(p0.device().cmb().local_credit(), wal.size() + second.size());

  // And back again: p0 re-promoted, s1 demoted.
  ASSERT_TRUE(host::AdminSync(s1, follow).ok());
  // Same slot/window shape both ways.
  ASSERT_TRUE(host::AdminSync(p0, add).ok());
  ASSERT_TRUE(host::AdminSync(p0, lead).ok());
  ASSERT_TRUE(p0.client().Reconnect().ok());
  EXPECT_EQ(p0.client().written(), wal.size() + second.size());

  std::vector<uint8_t> third = Pattern(3000, wal.size() + second.size());
  ASSERT_EQ(host::x_pwrite(sim, p0.client(), third.data(), third.size()),
            static_cast<ssize_t>(third.size()));
  ASSERT_EQ(host::x_fsync(sim, p0.client()), 0);
  EXPECT_GE(s1.device().cmb().local_credit(),
            wal.size() + second.size() + third.size());
  EXPECT_EQ(p0.client().reconnects(), 1u);
  EXPECT_EQ(s1.client().reconnects(), 1u);
}

}  // namespace
}  // namespace xssd
