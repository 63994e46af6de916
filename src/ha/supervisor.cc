#include "ha/supervisor.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/flightrec.h"

namespace xssd::ha {

namespace {

void EncodeHeartbeat(const Heartbeat& hb, uint8_t out[kHeartbeatBytes]) {
  std::memcpy(out + 0, &hb.seq, 8);
  std::memcpy(out + 8, &hb.term, 8);
  std::memcpy(out + 16, &hb.credit, 8);
  std::memcpy(out + 24, &hb.leader, 8);
  std::memcpy(out + 32, &hb.base, 8);
}

Heartbeat DecodeHeartbeat(const uint8_t in[kHeartbeatBytes]) {
  Heartbeat hb;
  std::memcpy(&hb.seq, in + 0, 8);
  std::memcpy(&hb.term, in + 8, 8);
  std::memcpy(&hb.credit, in + 16, 8);
  std::memcpy(&hb.leader, in + 24, 8);
  std::memcpy(&hb.base, in + 32, 8);
  return hb;
}

}  // namespace

using core::AddPeerCmd;
using core::ClearPeersCmd;
using core::RemovePeerCmd;
using core::SetReplicationCmd;
using core::SetRoleCmd;
using core::SetTermCmd;
using core::SetUpdatePeriodCmd;
using core::TruncateCmd;

ReplicaSupervisor::ReplicaSupervisor(sim::Simulator* sim,
                                     std::vector<host::StorageNode*> nodes,
                                     HaConfig config)
    : sim_(sim),
      nodes_(std::move(nodes)),
      config_(config),
      agents_(nodes_.size()) {}

void ReplicaSupervisor::ConfigureDevice(core::VillarsConfig* config) {
  if (config->transport.retransmit_timeout == 0) {
    config->transport.retransmit_timeout = sim::Us(200);
  }
  // Resync must converge on failover timescales, not the milliseconds the
  // standalone default allows the backoff to grow to.
  config->transport.retransmit_backoff_max = std::min<sim::SimTime>(
      config->transport.retransmit_backoff_max, sim::Us(400));
  // Degraded mode silently un-replicates acked bytes — exactly what the
  // fencing machinery exists to rule out.
  config->transport.degrade_timeout = 0;
}

uint64_t ReplicaSupervisor::DataWindow(size_t to) {
  return host::NodeLayout::kNtbBase + to * host::NodeLayout::kNtbWindowBytes;
}

uint64_t ReplicaSupervisor::HeartbeatWindow(size_t to) {
  return host::NodeLayout::kNtbBase +
         (kHeartbeatWindowBase + to) * host::NodeLayout::kNtbWindowBytes;
}

uint64_t ReplicaSupervisor::ReadLocalCredit(size_t i) {
  uint8_t raw[8] = {0};
  nodes_[i]->fabric().FunctionalRead(
      host::NodeLayout::kCmbBase + core::kRegLocalCredit, raw, 8);
  uint64_t value = 0;
  std::memcpy(&value, raw, 8);
  return value;
}

Status ReplicaSupervisor::Setup() {
  size_t n = nodes_.size();
  if (n < 2) {
    return Status::InvalidArgument("ha: need at least 2 members");
  }
  if (n > kHeartbeatWindowBase) {
    return Status::InvalidArgument(
        "ha: data and heartbeat windows share the 8-slot NTB BAR; at most " +
        std::to_string(kHeartbeatWindowBase) + " members");
  }
  XSSD_RETURN_IF_ERROR(core::CheckUpdatePeriod(config_.update_period));
  if (config_.heartbeat_period == 0) {
    return Status::InvalidArgument("ha: heartbeat_period must be positive");
  }
  XSSD_RETURN_IF_ERROR(host::CheckRingsMatch(nodes_, "ha"));
  for (size_t i = 0; i < n; ++i) {
    const core::VillarsConfig& config = nodes_[i]->device().config();
    if (config.transport.retransmit_timeout == 0) {
      return Status::InvalidArgument(
          "ha: member " + std::to_string(i) +
          " has retransmit disabled; rejoin resync cannot converge");
    }
  }

  // Full mesh: every member can mirror data into every other member's CMB
  // and post heartbeats into every other member's scratchpad.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      Result<uint64_t> data = nodes_[i]->ConnectWindowTo(
          static_cast<uint32_t>(j), *nodes_[j]);
      if (!data.ok()) return data.status();
      Result<uint64_t> hb = nodes_[i]->ConnectScratchpadWindowTo(
          static_cast<uint32_t>(kHeartbeatWindowBase + j), *nodes_[j]);
      if (!hb.ok()) return hb.status();
    }
  }

  // Form the group at term 1, member 0 leading. Followers first, so the
  // leader starts mirroring only into fenced-in members.
  host::StorageNode& leader = *nodes_[0];
  for (size_t j = 1; j < n; ++j) {
    host::StorageNode& follower = *nodes_[j];
    XSSD_RETURN_IF_ERROR(host::AdminSync(follower, SetTermCmd(1, 0)));
    uint64_t mailbox = DataWindow(0) + core::ShadowMailboxOffset(j);
    XSSD_RETURN_IF_ERROR(host::AdminSync(
        follower, SetRoleCmd(core::Role::kSecondary, mailbox)));
    XSSD_RETURN_IF_ERROR(host::AdminSync(
        follower, SetUpdatePeriodCmd(config_.update_period)));
  }
  XSSD_RETURN_IF_ERROR(host::AdminSync(leader, SetTermCmd(1, 0)));
  for (size_t j = 1; j < n; ++j) {
    XSSD_RETURN_IF_ERROR(
        host::AdminSync(leader, AddPeerCmd(j, DataWindow(j))));
  }
  XSSD_RETURN_IF_ERROR(
      host::AdminSync(leader, SetReplicationCmd(config_.protocol)));
  XSSD_RETURN_IF_ERROR(
      host::AdminSync(leader, SetRoleCmd(core::Role::kPrimary, 0)));

  for (size_t i = 0; i < n; ++i) {
    agents_[i] = Agent{};
    agents_[i].term = 1;
    agents_[i].leader = 0;
  }
  for (size_t j = 1; j < n; ++j) agents_[0].in_group[j] = true;
  leader_hint_ = 0;
  return Status::OK();
}

void ReplicaSupervisor::Start() {
  running_ = true;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    sim_->Schedule(0, [this, i]() { Tick(i); });
  }
}

void ReplicaSupervisor::Stop() { running_ = false; }

void ReplicaSupervisor::Tick(size_t i) {
  if (!running_) return;
  Agent& agent = agents_[i];
  if (!nodes_[i]->device().halted()) {
    SendHeartbeat(i);
    ScanHeartbeats(i);
    if (!agent.busy && !MaybeAdopt(i)) {
      if (agent.leader == i) {
        LeaderDuties(i);
      } else {
        MaybeElect(i);
      }
    }
  }
  sim_->Schedule(config_.heartbeat_period, [this, i]() { Tick(i); });
}

void ReplicaSupervisor::SendHeartbeat(size_t i) {
  Agent& agent = agents_[i];
  Heartbeat hb;
  hb.seq = ++agent.seq;
  hb.term = agent.term;
  hb.credit = ReadLocalCredit(i);
  hb.leader = agent.leader;
  hb.base = agent.base;
  agent.last_credit = hb.credit;
  Bytes payload = Bytes::Build(
      kHeartbeatBytes, [&](uint8_t* out) { EncodeHeartbeat(hb, out); });
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    nodes_[i]->fabric().HostWrite(HeartbeatWindow(j) + kHeartbeatStride * i,
                                  payload, 64);
  }
}

void ReplicaSupervisor::ScanHeartbeats(size_t i) {
  Agent& agent = agents_[i];
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    uint8_t raw[kHeartbeatBytes] = {0};
    nodes_[i]->fabric().FunctionalRead(
        host::StorageNode::ScratchpadBase() + kHeartbeatStride * j, raw,
        kHeartbeatBytes);
    Heartbeat hb = DecodeHeartbeat(raw);
    PeerView& view = agent.peers[j];
    if (hb.seq > view.hb.seq) {
      view.hb = hb;
      view.misses = 0;
      view.ever = true;
    } else if (view.misses < config_.suspicion_threshold) {
      ++view.misses;
    }
  }
}

uint32_t ReplicaSupervisor::LiveCount(size_t i) const {
  const Agent& agent = agents_[i];
  uint32_t live = 1;  // self
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    const PeerView& view = agent.peers[j];
    if (view.ever && view.misses < config_.suspicion_threshold) ++live;
  }
  return live;
}

bool ReplicaSupervisor::MaybeAdopt(size_t i) {
  Agent& agent = agents_[i];
  size_t best = nodes_.size();
  uint64_t best_term = agent.term;
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    const PeerView& view = agent.peers[j];
    // Only the leader's own claim counts — a relayed term could name a
    // leader whose promotion never completed.
    if (view.ever && view.hb.leader == j && view.hb.term > best_term) {
      best = j;
      best_term = view.hb.term;
    }
  }
  if (best == nodes_.size()) return false;
  Adopt(i, best, agent.peers[best].hb);
  return true;
}

void ReplicaSupervisor::MaybeElect(size_t i) {
  Agent& agent = agents_[i];
  size_t leader = static_cast<size_t>(agent.leader);
  if (agent.peers[leader].misses < config_.suspicion_threshold) return;
  // Quorum: a minority island must not elect — its members wait (their
  // clients see stalls, not lost acks) until the partition heals.
  if (LiveCount(i) * 2 <= nodes_.size()) return;
  // The most-caught-up live member promotes; ties break to the lowest id.
  // Own candidacy uses the credit last *broadcast*, so every live member
  // compares the same values once heartbeats settle.
  size_t best = i;
  uint64_t best_credit = agent.last_credit;
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    const PeerView& view = agent.peers[j];
    if (!view.ever || view.misses >= config_.suspicion_threshold) continue;
    if (view.hb.term != agent.term) continue;
    if (view.hb.credit > best_credit ||
        (view.hb.credit == best_credit && j < best)) {
      best = j;
      best_credit = view.hb.credit;
    }
  }
  if (best == i) Promote(i, agent.term + 1);
}

void ReplicaSupervisor::Promote(size_t i, uint64_t new_term) {
  Agent& agent = agents_[i];
  agent.busy = true;
  uint64_t base = ReadLocalCredit(i);
  std::vector<size_t> live;
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    const PeerView& view = agent.peers[j];
    if (view.ever && view.misses < config_.suspicion_threshold) {
      live.push_back(j);
    }
  }
  XSSD_LOG(kInfo) << "ha: member " << i << " promoting at term " << new_term
                  << " (base " << base << ", " << live.size()
                  << " live peers)";
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "ha",
                       "member " + std::to_string(i) + " promoting at term " +
                           std::to_string(new_term) + " (base " +
                           std::to_string(base) + ", " +
                           std::to_string(live.size()) + " live peers)");
  }
  std::vector<nvme::Command> cmds;
  cmds.push_back(SetTermCmd(new_term, i));
  cmds.push_back(ClearPeersCmd());
  for (size_t j : live) {
    cmds.push_back(AddPeerCmd(j, DataWindow(j)));
  }
  cmds.push_back(SetReplicationCmd(config_.protocol));
  cmds.push_back(SetRoleCmd(core::Role::kPrimary, 0));
  RunAdminChain(i, std::move(cmds), 0,
                [this, i, new_term, base, live](Status status) {
                  Agent& agent = agents_[i];
                  agent.busy = false;
                  if (!status.ok()) return;  // retried from the next tick
                  agent.term = new_term;
                  agent.leader = i;
                  agent.base = base;
                  for (size_t j = 0; j < core::kMaxPeers; ++j) {
                    agent.in_group[j] = false;
                  }
                  for (size_t j : live) agent.in_group[j] = true;
                  ++promotions_;
                  leader_hint_ = i;
                  // The promoted log is intact (same epoch): the client
                  // adopts the device tail and keeps its cursors.
                  Status reconnect = nodes_[i]->client().Reconnect();
                  if (!reconnect.ok()) {
                    XSSD_LOG(kWarning)
                        << "ha: post-promotion reconnect failed: "
                        << reconnect.message();
                  }
                });
}

void ReplicaSupervisor::Adopt(size_t i, size_t leader, const Heartbeat& hb) {
  Agent& agent = agents_[i];
  agent.busy = true;
  bool was_leader = agent.leader == i;
  // Cut the unreplicated suffix: everything this member holds beyond the
  // new leader's promotion base diverges from the surviving history. For
  // a member that was merely behind, min() makes the cut a no-op.
  uint64_t join = std::min(ReadLocalCredit(i), hb.base);
  uint64_t new_term = hb.term;
  XSSD_LOG(kInfo) << "ha: member " << i << (was_leader ? " demoting," : "")
                  << " adopting leader " << leader << " at term " << new_term
                  << " (join base " << join << ")";
  if (flightrec_ != nullptr) {
    flightrec_->Record(
        sim_->Now(), "ha",
        "member " + std::to_string(i) +
            std::string(was_leader ? " demoting," : "") + " adopting leader " +
            std::to_string(leader) + " at term " + std::to_string(new_term) +
            " (join base " + std::to_string(join) + ")");
  }
  std::vector<nvme::Command> cmds;
  cmds.push_back(SetTermCmd(new_term, leader));
  cmds.push_back(TruncateCmd(join));
  cmds.push_back(ClearPeersCmd());
  uint64_t mailbox = DataWindow(leader) + core::ShadowMailboxOffset(i);
  cmds.push_back(SetRoleCmd(core::Role::kSecondary, mailbox));
  cmds.push_back(SetUpdatePeriodCmd(config_.update_period));
  RunAdminChain(i, std::move(cmds), 0,
                [this, i, leader, new_term, was_leader](Status status) {
                  Agent& agent = agents_[i];
                  agent.busy = false;
                  if (!status.ok()) return;
                  agent.term = new_term;
                  agent.leader = leader;
                  agent.base = 0;
                  for (size_t j = 0; j < core::kMaxPeers; ++j) {
                    agent.in_group[j] = false;
                  }
                  if (was_leader) ++demotions_;
                });
}

void ReplicaSupervisor::LeaderDuties(size_t i) {
  Agent& agent = agents_[i];
  uint32_t live = LiveCount(i);
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    PeerView& view = agent.peers[j];
    bool fresh = view.ever && view.misses < config_.suspicion_threshold;
    // Drop a dead member only while a live majority remains: a leader on
    // the minority side must keep its dead peers so eager credit freezes
    // instead of acking un-replicated bytes.
    if (agent.in_group[j] && !fresh && live * 2 > nodes_.size()) {
      agent.busy = true;
      XSSD_LOG(kInfo) << "ha: leader " << i << " removing member " << j;
      if (flightrec_ != nullptr) {
        flightrec_->Record(sim_->Now(), "ha",
                           "leader " + std::to_string(i) +
                               " removing suspected member " +
                               std::to_string(j));
      }
      RunAdminChain(i, {RemovePeerCmd(j)}, 0, [this, i, j](Status status) {
        agents_[i].busy = false;
        if (status.ok()) {
          agents_[i].in_group[j] = false;
          ++removals_;
        }
      });
      return;  // one membership change per tick
    }
    // Re-admit a member once its heartbeat shows it adopted this term
    // (truncated + fenced in). AddPeerAt resets its shadow counter, so the
    // retransmit path streams it back from its (possibly rolled-back)
    // credit.
    if (!agent.in_group[j] && fresh && view.hb.term == agent.term &&
        view.hb.leader == i) {
      agent.busy = true;
      XSSD_LOG(kInfo) << "ha: leader " << i << " re-admitting member " << j;
      if (flightrec_ != nullptr) {
        flightrec_->Record(sim_->Now(), "ha",
                           "leader " + std::to_string(i) +
                               " re-admitting member " + std::to_string(j));
      }
      RunAdminChain(i, {AddPeerCmd(j, DataWindow(j))}, 0,
                    [this, i, j](Status status) {
                      agents_[i].busy = false;
                      if (status.ok()) {
                        agents_[i].in_group[j] = true;
                        ++joins_;
                      }
                    });
      return;
    }
  }
}

void ReplicaSupervisor::RunAdminChain(size_t i,
                                      std::vector<nvme::Command> cmds,
                                      size_t next,
                                      std::function<void(Status)> done) {
  if (next == cmds.size()) {
    done(Status::OK());
    return;
  }
  nvme::Command cmd = cmds[next];
  nodes_[i]->driver().Admin(
      cmd, [this, i, cmds = std::move(cmds), next,
            done = std::move(done)](nvme::Completion cpl) mutable {
        if (!cpl.ok()) {
          done(Status::IoError("ha: admin command failed"));
          return;
        }
        RunAdminChain(i, std::move(cmds), next + 1, std::move(done));
      });
}

}  // namespace xssd::ha
