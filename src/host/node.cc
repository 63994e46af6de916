#include "host/node.h"

#include "core/validate.h"
#include "host/sync.h"

namespace xssd::host {

namespace {

ntb::NtbConfig NodeNtbConfig() {
  ntb::NtbConfig config;
  config.scratchpad_offset = NodeLayout::kNtbScratchpadOffset;
  config.scratchpad_bytes = NodeLayout::kScratchpadBytes;
  return config;
}

}  // namespace

StorageNode::StorageNode(sim::Simulator* sim,
                         const core::VillarsConfig& device_config,
                         const pcie::FabricConfig& fabric_config,
                         std::string name, XLogClientOptions client_options)
    : sim_(sim),
      name_(std::move(name)),
      fabric_(sim, fabric_config, name_ + "/fabric"),
      device_(sim, &fabric_, device_config, name_ + "/villars"),
      driver_(sim, &fabric_, &device_.controller(), NodeLayout::kBar0Base),
      ntb_(sim, NodeNtbConfig(), name_ + "/ntb"),
      client_(std::make_unique<XLogClient>(sim, &fabric_,
                                           NodeLayout::kCmbBase,
                                           client_options)) {}

Status StorageNode::Init() {
  // Initialization timers and queue polls armed from here must land in this
  // node's scheduler domain, not default domain 0.
  sim::Simulator::DomainScope scope(sim_, fabric_.domain());
  XSSD_RETURN_IF_ERROR(core::ValidateConfig(device_.config()));
  XSSD_RETURN_IF_ERROR(
      device_.Attach(NodeLayout::kBar0Base, NodeLayout::kCmbBase));
  XSSD_RETURN_IF_ERROR(fabric_.AddMmioRegion(
      NodeLayout::kNtbBase,
      NodeLayout::kNtbWindowBytes * core::kMaxPeers +
          NodeLayout::kScratchpadBytes,
      &ntb_, name_ + "/ntb-bar"));
  ntb_attached_ = true;
  XSSD_RETURN_IF_ERROR(driver_.Initialize());
  XSSD_RETURN_IF_ERROR(client_->Setup());
  return Status::OK();
}

void StorageNode::EnableMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  device_.EnableMetrics(registry, prefix);
  fabric_.SetMetrics(registry, prefix);
  ntb_.SetMetrics(registry, prefix);
}

void StorageNode::EnableSpans(obs::SpanRecorder* spans,
                              const std::string& node_tag) {
  device_.EnableSpans(spans, node_tag);
  fabric_.SetSpans(spans);
  ntb_.SetSpans(spans, node_tag);
  driver_.SetSpans(spans, node_tag);
  if (client_) client_->SetSpans(spans, node_tag);
}

void StorageNode::ArmFaults(fault::FaultInjector* injector,
                            bool install_crash_handler) {
  device_.ArmFaults(injector, install_crash_handler);
  fabric_.set_fault_injector(injector);
  ntb_.set_fault_injector(injector);
}

Result<uint64_t> StorageNode::ConnectWindowTo(uint32_t slot,
                                              StorageNode& peer) {
  if (!ntb_attached_) return Status::FailedPrecondition("Init() first");
  uint64_t window_offset = slot * NodeLayout::kNtbWindowBytes;
  XSSD_RETURN_IF_ERROR(ntb_.AddWindow(window_offset,
                                      peer.device().cmb_bar_bytes(),
                                      &peer.fabric(),
                                      NodeLayout::kCmbBase));
  return NodeLayout::kNtbBase + window_offset;
}

Result<uint64_t> StorageNode::ConnectScratchpadWindowTo(uint32_t slot,
                                                        StorageNode& peer) {
  if (!ntb_attached_) return Status::FailedPrecondition("Init() first");
  uint64_t window_offset = slot * NodeLayout::kNtbWindowBytes;
  XSSD_RETURN_IF_ERROR(ntb_.AddWindow(window_offset,
                                      NodeLayout::kScratchpadBytes,
                                      &peer.fabric(), ScratchpadBase()));
  return NodeLayout::kNtbBase + window_offset;
}

Status CheckRingsMatch(const std::vector<StorageNode*>& nodes,
                       const std::string& group) {
  // A primary places mirrored bytes by its own ring size and a receiver
  // infers their stream offsets by its own, so the two must agree.
  uint64_t ring_bytes = nodes[0]->device().cmb().ring_bytes();
  for (size_t i = 1; i < nodes.size(); ++i) {
    uint64_t member_ring = nodes[i]->device().cmb().ring_bytes();
    if (member_ring != ring_bytes) {
      return Status::InvalidArgument(
          group + ": member " + std::to_string(i) + " (" + nodes[i]->name() +
          ") has a " + std::to_string(member_ring) +
          "-byte CMB ring, member 0 a " + std::to_string(ring_bytes) +
          "-byte one; every member's ring must be the same size");
    }
  }
  return Status::OK();
}

Status AdminSync(StorageNode& node, const nvme::Command& cmd) {
  // The admin submission (and anything the device arms while handling it,
  // e.g. the shadow-update timer) belongs to the target node's domain.
  sim::Simulator::DomainScope scope(&node.simulator(),
                                    node.fabric().domain());
  SyncRunner runner(&node.simulator());
  return runner.Await([&](std::function<void(Status)> done) {
    node.driver().Admin(cmd, [done = std::move(done)](
                                 nvme::Completion cpl) mutable {
      done(cpl.ok() ? Status::OK()
                    : Status::IoError("admin command failed"));
    });
  });
}

Status ReplicationGroup::Setup(core::ReplicationProtocol protocol,
                               sim::SimTime update_period) {
  if (nodes_.size() < 2) {
    return Status::InvalidArgument("need a primary and >= 1 secondary");
  }
  StorageNode& primary = *nodes_[0];
  XSSD_RETURN_IF_ERROR(CheckRingsMatch(nodes_, "replication group"));

  for (size_t i = 1; i < nodes_.size(); ++i) {
    StorageNode& secondary = *nodes_[i];
    uint32_t peer_index = static_cast<uint32_t>(i - 1);

    // Primary -> secondary window (mirror stream path).
    Result<uint64_t> fwd =
        primary.ConnectWindowTo(peer_index, secondary);
    if (!fwd.ok()) return fwd.status();

    // Secondary -> primary window (shadow-counter path); slot 0 on the
    // secondary always points home.
    Result<uint64_t> back = secondary.ConnectWindowTo(0, primary);
    if (!back.ok()) return back.status();

    // Tell the primary about its peer.
    XSSD_RETURN_IF_ERROR(
        AdminSync(primary, core::AddPeerCmd(peer_index, *fwd)));

    // Configure the secondary: role + where its shadow mailbox lives.
    uint64_t shadow_addr = *back + core::ShadowMailboxOffset(peer_index);
    XSSD_RETURN_IF_ERROR(AdminSync(
        secondary, core::SetRoleCmd(core::Role::kSecondary, shadow_addr)));
    XSSD_RETURN_IF_ERROR(
        AdminSync(secondary, core::SetUpdatePeriodCmd(update_period)));
  }

  XSSD_RETURN_IF_ERROR(AdminSync(primary, core::SetReplicationCmd(protocol)));
  return AdminSync(primary, core::SetRoleCmd(core::Role::kPrimary, 0));
}

}  // namespace xssd::host
