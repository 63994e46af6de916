#ifndef XSSD_HOST_NODE_H_
#define XSSD_HOST_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/villars_device.h"
#include "host/xlog_client.h"
#include "ntb/ntb.h"
#include "nvme/driver.h"
#include "pcie/fabric.h"

namespace xssd::host {

/// Standard bus-address layout of a simulated server.
struct NodeLayout {
  static constexpr uint64_t kBar0Base = 0xF000'0000ull;
  static constexpr uint64_t kCmbBase = 0xE000'0000ull;
  static constexpr uint64_t kNtbBase = 0x2'0000'0000ull;  // above 4 GiB
  /// One NTB window per potential peer, 256 MiB apart (covers a DRAM-sized
  /// CMB BAR).
  static constexpr uint64_t kNtbWindowBytes = 0x1000'0000ull;
  /// Doorbell/scratchpad page at the top of the NTB BAR, past every peer
  /// window: peers post heartbeats here, the local HA supervisor reads
  /// them back (ntb::NtbConfig scratchpad region).
  static constexpr uint64_t kNtbScratchpadOffset =
      kNtbWindowBytes * core::kMaxPeers;
  static constexpr uint64_t kScratchpadBytes = 4096;
};

/// \brief One simulated server: a PCIe fabric with a Villars device, an
/// NVMe driver, an NTB adapter, and a fast-path client.
///
/// This is the unit the examples, benchmarks, and integration tests
/// compose. Nothing here adds behaviour — it only wires the pieces at the
/// standard addresses.
class StorageNode {
 public:
  StorageNode(sim::Simulator* sim, const core::VillarsConfig& device_config,
              const pcie::FabricConfig& fabric_config, std::string name,
              XLogClientOptions client_options = {});

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Attach device + NTB BARs, initialize the driver, set up the client.
  /// A device config that core::ValidateConfig refuses gets no device or
  /// driver at construction; Init then returns ValidateConfig's status, and
  /// only the destructor may follow.
  Status Init();

  /// Map NTB window `slot` onto `peer`'s CMB BAR. Returns the local bus
  /// address through which the peer's CMB is reachable.
  Result<uint64_t> ConnectWindowTo(uint32_t slot, StorageNode& peer);

  /// Map NTB window `slot` onto `peer`'s NTB scratchpad page (heartbeat
  /// mailbox). Returns the local bus address of the window.
  Result<uint64_t> ConnectScratchpadWindowTo(uint32_t slot,
                                             StorageNode& peer);

  /// Local bus address of this node's own scratchpad page (where peers'
  /// heartbeats land; read with fabric().FunctionalRead).
  static constexpr uint64_t ScratchpadBase() {
    return NodeLayout::kNtbBase + NodeLayout::kNtbScratchpadOffset;
  }

  /// Register metrics for the device, fabric, and NTB adapter under
  /// `prefix` (empty for the acceptance-standard plain "cmb.*" names;
  /// per-node prefixes like "pri." disambiguate multi-node benches).
  void EnableMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix = "");

  /// Attach span tracing to every component of this node — client, driver,
  /// device, fabric relay, NTB adapter — under node tag `node_tag`
  /// (nullptr detaches).
  void EnableSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a fault injector to this node's device, fabric, and NTB
  /// adapter (nullptr detaches). Forwards to
  /// core::VillarsDevice::ArmFaults for the device-internal hooks.
  void ArmFaults(fault::FaultInjector* injector,
                 bool install_crash_handler = true);

  pcie::PcieFabric& fabric() { return fabric_; }
  core::VillarsDevice& device() {
    XSSD_CHECK(device_.has_value());
    return *device_;
  }
  nvme::Driver& driver() {
    XSSD_CHECK(driver_.has_value());
    return *driver_;
  }
  ntb::NtbAdapter& ntb() { return ntb_; }
  XLogClient& client() { return *client_; }
  sim::Simulator& simulator() { return *sim_; }
  const std::string& name() const { return name_; }

 private:
  sim::Simulator* sim_;
  std::string name_;
  Status config_status_;
  pcie::PcieFabric fabric_;
  std::optional<core::VillarsDevice> device_;  // empty for a refused config
  std::optional<nvme::Driver> driver_;
  ntb::NtbAdapter ntb_;
  std::unique_ptr<XLogClient> client_;
  bool ntb_attached_ = false;
};

/// \brief Wires a primary and N secondaries into a replication group using
/// only the public interfaces: NTB windows plus the vendor-specific NVMe
/// admin commands of §4.2.
class ReplicationGroup {
 public:
  /// `nodes[0]` becomes the primary, the rest secondaries.
  ReplicationGroup(std::vector<StorageNode*> nodes)
      : nodes_(std::move(nodes)) {}

  /// Establish windows, roles, protocol, and the shadow-counter update
  /// period on every member. Blocking (pumps the simulator). No term is
  /// set, so the primary pushes as member slot 0, through intake alias 0
  /// of every secondary. InvalidArgument if a member's CMB ring size
  /// differs from the primary's.
  Status Setup(core::ReplicationProtocol protocol,
               sim::SimTime update_period);

  StorageNode& primary() { return *nodes_[0]; }
  StorageNode& secondary(size_t i) { return *nodes_[i + 1]; }

 private:
  std::vector<StorageNode*> nodes_;
};

/// Issue one admin command to `node`'s device through its driver.
/// Blocking (pumps the simulator).
Status AdminSync(StorageNode& node, const nvme::Command& cmd);

/// InvalidArgument naming the first member of `nodes` whose CMB ring size
/// differs from member 0's (`group` prefixes the message); OK otherwise.
Status CheckRingsMatch(const std::vector<StorageNode*>& nodes,
                       const std::string& group);

}  // namespace xssd::host

#endif  // XSSD_HOST_NODE_H_
