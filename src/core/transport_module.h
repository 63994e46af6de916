#ifndef XSSD_CORE_TRANSPORT_MODULE_H_
#define XSSD_CORE_TRANSPORT_MODULE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/registers.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pcie/fabric.h"
#include "sim/simulator.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::core {

/// \brief The Transport module (paper §4.2): replication of the fast-side
/// write stream across Villars devices over NTB.
///
/// On a *primary*, the module taps the mirror of CMB arrivals and re-posts
/// each chunk into every peer's CMB ring, through the intake alias of this
/// device's member slot (one independent flow per secondary — the paper
/// deliberately forgoes NTB multicast). It also owns
/// the shadow counters that secondaries update, and computes the
/// protocol-visible credit from them.
///
/// On a *secondary*, the module periodically (every update_period) writes
/// the local credit counter into the primary's shadow mailbox through the
/// NTB window.
///
/// All cross-device traffic is plain posted writes issued on the local
/// fabric (PeerWrite to the NTB adapter's window), exactly the TLP
/// repackaging §2.3 describes.
class TransportModule {
 public:
  TransportModule(sim::Simulator* sim, pcie::PcieFabric* fabric,
                  const TransportConfig& config);

  TransportModule(const TransportModule&) = delete;
  TransportModule& operator=(const TransportModule&) = delete;

  // -- Role management (driven by vendor-specific NVMe admin commands) -----

  void SetRole(Role role);
  Role role() const { return role_; }

  void set_protocol(ReplicationProtocol protocol) { protocol_ = protocol; }
  ReplicationProtocol protocol() const { return protocol_; }

  void set_update_period(sim::SimTime period) {
    config_.update_period = period;
  }
  sim::SimTime update_period() const { return config_.update_period; }

  /// Ring size of the replication group (set by the owning device; used to
  /// wrap mirrored stream offsets and to find the intake aliases in peer
  /// CMB BARs).
  void set_ring_bytes(uint64_t ring_bytes) { ring_bytes_ = ring_bytes; }

  /// Primary: register the peer at member slot `slot`, whose CMB BAR is
  /// reachable at `peer_cmb_window` on the local fabric (an NTB window
  /// address). Slots are stable member ids, so a rejoining node reclaims
  /// its old slot and the chain order — insertion order of active slots —
  /// is re-linked around a removed middle node. Re-adding an active slot
  /// updates the window.
  Status AddPeerAt(uint32_t slot, uint64_t peer_cmb_window);
  /// Drop the peer at `slot` from the group (its shadow no longer gates
  /// the credit; chain order closes over the hole).
  Status RemovePeer(uint32_t slot);
  void ClearPeers();
  uint32_t peer_count() const {
    return static_cast<uint32_t>(active_slots_.size());
  }

  // -- Term fencing (HA failover, see src/ha/) ------------------------------

  /// Adopt replication term `term` with member slot `writer_slot` as the
  /// authorised writer. Also records `writer_slot` as this device's own
  /// slot for outgoing mirror traffic (slot 0 until a term is set): the
  /// supervisor calls SetTerm on the *leader* with the leader's slot, and
  /// on followers with the leader's slot too (followers do not mirror, so
  /// the writer identity is always the current leader's).
  void SetTerm(uint64_t term, uint32_t writer_slot);
  uint64_t term() const { return term_; }
  uint64_t writer_term(uint32_t slot) const {
    return slot < kMaxPeers ? writer_terms_[slot] : 0;
  }

  /// Admission decision for a ring write arriving through the per-peer
  /// intake alias of member `slot`: admitted iff the slot's writer term is
  /// current. A deposed primary still pushing at its old term is fenced
  /// here (split-brain protection); rejections are counted.
  bool AdmitRingWrite(uint32_t slot);
  uint64_t fenced_writes() const { return fenced_writes_; }

  /// Secondary: where (on the local fabric, through NTB) this device's
  /// shadow mailbox on the primary lives.
  void ConfigureSecondary(uint64_t primary_shadow_addr);

  // -- Data-path hooks ------------------------------------------------------

  /// Primary tap: a chunk arrived on the local CMB (Figure 6 step 1-2).
  void OnCmbArrival(uint64_t stream_offset, const uint8_t* data, size_t len);

  /// Secondary tap: local credit advanced (reported on the next cycle).
  void OnLocalCredit(uint64_t credit);

  /// A secondary wrote shadow mailbox `index` (landed on the control page).
  void OnShadowWrite(uint32_t index, uint64_t value);

  /// Observer invoked on every shadow-counter advance (instrumentation for
  /// replication-delay measurements; not part of the device protocol).
  using ShadowHook = std::function<void(uint32_t index, uint64_t value)>;
  void SetShadowHook(ShadowHook hook) { shadow_hook_ = std::move(hook); }

  /// Reader for retransmission payloads: copies persisted stream bytes
  /// [stream_offset, +len) out of the local CMB ring. Must only be asked
  /// for offsets within the last ring_bytes below the local credit — the
  /// retransmit path clamps to that window itself.
  using RingReader =
      std::function<void(uint64_t stream_offset, uint8_t* out, size_t len)>;
  void SetRingReader(RingReader reader) { ring_reader_ = std::move(reader); }

  /// Protocol-visible credit (what the kRegCredit register returns).
  uint64_t EffectiveCredit(uint64_t local_credit) const;

  uint64_t shadow_counter(uint32_t index) const { return shadows_[index]; }

  /// Status word for kRegTransportStatus.
  uint64_t StatusWord(uint64_t local_credit) const;

  /// Wire bytes sent for mirror traffic / counter updates (diagnostics).
  uint64_t mirrored_bytes() const { return mirrored_bytes_; }
  uint64_t counter_updates_sent() const { return counter_updates_sent_; }

  /// Retransmission diagnostics: silent-shadow rounds fired and ring bytes
  /// re-mirrored (0 unless retransmit_timeout is configured).
  uint64_t retransmit_rounds() const { return retransmit_rounds_; }
  uint64_t retransmitted_bytes() const { return retransmitted_bytes_; }

  /// True while the primary logs un-replicated because every lagging peer
  /// has been silent past degrade_timeout.
  bool degraded() const { return degraded_; }
  uint64_t degraded_entries() const { return degraded_entries_; }

  /// Register this module's metrics under `prefix` + "transport.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each mirrored chunk opens a
  /// replication.wait span (arrival → every shadow counter covers the
  /// bytes); NTB link spans nest under it via the ambient context.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a flight recorder (nullptr detaches). Records each fenced
  /// stale-term ring write — the term fence doing its job is exactly what
  /// a split-brain post-mortem needs to see. `node_tag` prefixes messages
  /// per device (e.g. "sec0").
  void SetFlightRecorder(obs::FlightRecorder* recorder,
                         const std::string& node_tag = "") {
    flightrec_ = recorder;
    fr_tag_ = node_tag.empty() ? "" : node_tag + " ";
  }

 private:
  void UpdateTick();
  void UpdateLagGauge();

  /// Smallest shadow counter across registered peers (the eager bound).
  uint64_t MinShadow() const;

  /// Arm the retransmit timer if lag exists and retransmission is enabled.
  void ArmRetransmitTimer();
  void OnRetransmitTimer();

  /// Re-mirror [from, local_credit_) — clamped to the last ring_bytes of
  /// the stream — to the peer at `window_base` in retransmit_chunk pieces,
  /// through the ring writer the live mirror uses.
  void RetransmitRange(uint64_t window_base, uint64_t from);
  void RetransmitRound();

  /// The one ring writer: post stream bytes [stream_offset, +len) to the
  /// peer whose CMB BAR is at `window_base`, into the intake alias of this
  /// device's member slot (so the receiver can term-fence us), at the ring
  /// offset the local write used — rings are sized identically within a
  /// replication group — wrapping at the ring end.
  void WriteToPeerRing(uint64_t window_base, uint64_t stream_offset,
                       const uint8_t* data, size_t len);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  TransportConfig config_;

  Role role_ = Role::kStandalone;
  ReplicationProtocol protocol_;

  uint64_t ring_bytes_ = 0;

  /// Sparse peer table indexed by member slot; active_slots_ keeps the
  /// insertion order (the chain order: tail = back()).
  struct PeerSlot {
    uint64_t window = 0;  ///< local-fabric window of the peer's CMB BAR
    bool active = false;
  };
  PeerSlot peer_slots_[kMaxPeers];
  std::vector<uint32_t> active_slots_;
  uint64_t shadows_[kMaxPeers] = {0};
  sim::SimTime last_shadow_advance_ = 0;

  // Term fencing state (HA).
  uint64_t term_ = 0;
  uint64_t writer_terms_[kMaxPeers] = {0};
  uint32_t member_slot_ = 0;
  uint64_t fenced_writes_ = 0;

  // Secondary state.
  uint64_t primary_shadow_addr_ = 0;
  uint64_t local_credit_ = 0;
  uint64_t timer_generation_ = 0;  ///< cancels stale periodic timers

  uint64_t mirrored_bytes_ = 0;
  uint64_t counter_updates_sent_ = 0;
  ShadowHook shadow_hook_;
  RingReader ring_reader_;

  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
  obs::FlightRecorder* flightrec_ = nullptr;
  std::string fr_tag_;
  /// Open replication.wait spans in stream order; the front is closed once
  /// MinShadow() reaches its end offset. Dropped (left open, skipped by
  /// the analyzer) on role changes.
  struct WaitSpan {
    uint64_t end_offset;
    obs::SpanContext ctx;
  };
  std::deque<WaitSpan> wait_spans_;

  // Retransmit / degraded-mode state (primary only).
  bool rt_armed_ = false;
  uint64_t rt_generation_ = 0;   ///< cancels stale retransmit timers
  sim::SimTime current_rto_ = 0;  ///< doubles per silent round
  bool degraded_ = false;
  uint64_t retransmit_rounds_ = 0;
  uint64_t retransmitted_bytes_ = 0;
  uint64_t degraded_entries_ = 0;

  // Observability (null until SetMetrics).
  obs::Counter* m_mirrored_bytes_ = nullptr;
  obs::Counter* m_mirror_chunks_ = nullptr;
  obs::Counter* m_counter_updates_ = nullptr;
  obs::Counter* m_shadow_advances_ = nullptr;
  obs::Counter* m_retransmit_rounds_ = nullptr;
  obs::Counter* m_retransmitted_bytes_ = nullptr;
  obs::Counter* m_degraded_entries_ = nullptr;
  obs::Counter* m_fenced_writes_ = nullptr;
  obs::Gauge* m_replication_lag_bytes_ = nullptr;
  obs::Gauge* m_degraded_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_TRANSPORT_MODULE_H_
