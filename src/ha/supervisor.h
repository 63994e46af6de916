#ifndef XSSD_HA_SUPERVISOR_H_
#define XSSD_HA_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/registers.h"
#include "host/node.h"
#include "nvme/command.h"
#include "sim/simulator.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::ha {

/// \brief Replication-lifecycle policy knobs.
struct HaConfig {
  core::ReplicationProtocol protocol = core::ReplicationProtocol::kEager;
  /// Shadow-counter forwarding period handed to every secondary.
  sim::SimTime update_period = sim::Ns(800);
  /// Heartbeat broadcast/scan period of every member's agent.
  sim::SimTime heartbeat_period = sim::Us(50);
  /// Consecutive silent heartbeat periods before a member is suspected
  /// dead. The product with heartbeat_period is the failure-detection
  /// window; flaps shorter than it cause no membership churn.
  uint32_t suspicion_threshold = 5;
};

/// One member's heartbeat record as laid out in every peer's NTB
/// scratchpad: member m owns the 64-byte stride at offset 64*m; the first
/// five u64 fields carry the payload, the rest of the stride is padding.
struct Heartbeat {
  uint64_t seq = 0;     ///< broadcast counter (liveness)
  uint64_t term = 0;    ///< sender's current term
  uint64_t credit = 0;  ///< sender's local credit (log tail in PM)
  uint64_t leader = 0;  ///< member id the sender follows (== sender if leader)
  uint64_t base = 0;    ///< leader only: credit at promotion (join cut)
};

inline constexpr size_t kHeartbeatBytes = 40;
inline constexpr size_t kHeartbeatStride = 64;
/// NTB window slot of the heartbeat window to member 0; data windows use
/// slots [0, cluster), heartbeat windows [kHeartbeatWindowBase,
/// kHeartbeatWindowBase + cluster). Both share the 8-slot NTB BAR, so
/// clusters are capped at kHeartbeatWindowBase members.
inline constexpr uint32_t kHeartbeatWindowBase = 4;

/// \brief Host-side autonomous replication supervisor (one agent per
/// member, all driven from this object).
///
/// The supervisor runs the full replication lifecycle over public
/// interfaces only — NTB windows and scratchpads, vendor admin commands,
/// and control-page registers:
///
///  - *Failure detection*: every agent broadcasts a heartbeat into each
///    peer's NTB scratchpad once per heartbeat_period and counts silent
///    periods per peer; suspicion_threshold misses mark a peer dead.
///  - *Fenced failover*: when the leader is suspected, the most-caught-up
///    live member (highest broadcast credit, lowest id on ties) — and only
///    it — promotes: it bumps the term on its own device (kXssdSetTerm),
///    re-adds the live members, and takes the primary role. Every device
///    checks pushed ring bytes against the term fence, so a deposed
///    primary's stale mirror/retransmit traffic is rejected
///    (kRegFencedWrites) — no split brain. Elections and membership
///    removals require a live majority: a minority-side leader keeps its
///    dead peers, its credit freezes, and its clients see stall errors
///    instead of un-replicated acks.
///  - *Rejoin/resync*: a member seeing a higher-term leader heartbeat
///    adopts it — truncates its unreplicated suffix to
///    min(own credit, leader's promotion base), re-arms the term fence for
///    the new writer, and rejoins as a secondary; the leader's retransmit
///    path streams it back to convergence. Chain topologies re-link
///    through the same add/remove path when a middle member dies.
///  - *Online membership*: the leader removes suspected members (majority
///    permitting) and re-admits any member whose heartbeat shows it has
///    adopted the current term.
///
/// Setup() is blocking (pumps the simulator); agents then run entirely
/// inside simulator callbacks, issuing admin commands asynchronously and
/// only ever to their own member's device.
class ReplicaSupervisor {
 public:
  ReplicaSupervisor(sim::Simulator* sim,
                    std::vector<host::StorageNode*> nodes, HaConfig config);

  ReplicaSupervisor(const ReplicaSupervisor&) = delete;
  ReplicaSupervisor& operator=(const ReplicaSupervisor&) = delete;

  /// Make a device config HA-capable: retransmission on, with a backoff
  /// bounded so resync converges on failover timescales, and degraded mode
  /// off. (Every device already carries the per-peer intake aliases the
  /// term fence needs.)
  static void ConfigureDevice(core::VillarsConfig* config);

  /// Wire the full NTB mesh (data + heartbeat windows) and form the group:
  /// term 1, member 0 primary, everyone else secondary. Blocking.
  /// InvalidArgument, naming the member, if a member has retransmission
  /// off (see ConfigureDevice) or a CMB ring size other than member 0's.
  Status Setup();

  /// Attach a flight recorder (nullptr detaches). Records the HA state
  /// machine's rare transitions — promotions, demotions/leader adoption,
  /// membership removals and re-admissions — stamped in virtual time, so
  /// a failover post-mortem reads as a timeline.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    flightrec_ = recorder;
  }

  /// Start the per-member agent loops. Call after Setup().
  void Start();
  /// Stop the agent loops (pending ticks become no-ops).
  void Stop();

  /// Member id the supervisor currently believes is leader.
  size_t leader_index() const { return leader_hint_; }
  /// Term of the believed leader.
  uint64_t term() const { return agents_[leader_hint_].term; }

  /// Completed promotions (exactly-once per failover is the HA invariant).
  uint64_t promotions() const { return promotions_; }
  /// Leaders demoted back to secondary after seeing a higher term.
  uint64_t demotions() const { return demotions_; }
  /// Members dropped from the group by the leader.
  uint64_t removals() const { return removals_; }
  /// Members (re-)admitted by the leader after group formation.
  uint64_t joins() const { return joins_; }

  size_t cluster_size() const { return nodes_.size(); }
  host::StorageNode& node(size_t i) { return *nodes_[i]; }
  const HaConfig& config() const { return config_; }

 private:
  struct PeerView {
    Heartbeat hb;
    uint32_t misses = 0;
    bool ever = false;  ///< any heartbeat seen yet
  };
  struct Agent {
    uint64_t term = 0;
    uint64_t leader = 0;       ///< member id this agent follows
    uint64_t base = 0;         ///< leader only: promotion-time credit
    uint64_t seq = 0;          ///< own broadcast counter
    uint64_t last_credit = 0;  ///< credit in the last broadcast
    bool busy = false;         ///< admin chain in flight
    bool in_group[core::kMaxPeers] = {false};  ///< leader's membership view
    PeerView peers[core::kMaxPeers];
  };

  void Tick(size_t i);
  void SendHeartbeat(size_t i);
  void ScanHeartbeats(size_t i);
  /// Returns true if an adoption chain was started.
  bool MaybeAdopt(size_t i);
  void MaybeElect(size_t i);
  void LeaderDuties(size_t i);
  void Promote(size_t i, uint64_t new_term);
  void Adopt(size_t i, size_t leader, const Heartbeat& hb);

  /// Live members in i's view (self plus fresh peers).
  uint32_t LiveCount(size_t i) const;
  /// Local bus address on node `from` of the data window to node `to`.
  static uint64_t DataWindow(size_t to);
  /// Local bus address on node `from` of the heartbeat window to `to`.
  static uint64_t HeartbeatWindow(size_t to);
  uint64_t ReadLocalCredit(size_t i);

  /// Issue `cmds` to node i's device one at a time; `done` fires with the
  /// first failure or OK after the last completion.
  void RunAdminChain(size_t i, std::vector<nvme::Command> cmds, size_t next,
                     std::function<void(Status)> done);

  sim::Simulator* sim_;
  std::vector<host::StorageNode*> nodes_;
  HaConfig config_;
  std::vector<Agent> agents_;
  bool running_ = false;

  obs::FlightRecorder* flightrec_ = nullptr;

  size_t leader_hint_ = 0;
  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t removals_ = 0;
  uint64_t joins_ = 0;
};

}  // namespace xssd::ha

#endif  // XSSD_HA_SUPERVISOR_H_
