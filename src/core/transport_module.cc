#include "core/transport_module.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/flightrec.h"
#include "pcie/store_engine.h"

namespace xssd::core {

TransportModule::TransportModule(sim::Simulator* sim,
                                 pcie::PcieFabric* fabric,
                                 const TransportConfig& config)
    : sim_(sim), fabric_(fabric), config_(config), protocol_(config.protocol) {}

void TransportModule::SetRole(Role role) {
  role_ = role;
  wait_spans_.clear();  // abandoned opens are skipped by the analyzer
  ++timer_generation_;  // cancel any running secondary timer
  ++rt_generation_;     // and any pending retransmit timer
  rt_armed_ = false;
  current_rto_ = config_.retransmit_timeout;
  degraded_ = false;
  if (m_degraded_) m_degraded_->Set(0);
  if (role_ == Role::kSecondary) {
    uint64_t generation = timer_generation_;
    sim_->Schedule(config_.update_period, [this, generation]() {
      if (generation != timer_generation_) return;
      UpdateTick();
    });
  }
}

Status TransportModule::AddPeerAt(uint32_t slot, uint64_t peer_cmb_window) {
  if (slot >= kMaxPeers) {
    return Status::InvalidArgument("peer slot out of range");
  }
  if (peer_slots_[slot].active) {
    peer_slots_[slot].window = peer_cmb_window;
    return Status::OK();
  }
  peer_slots_[slot] = PeerSlot{peer_cmb_window, true};
  active_slots_.push_back(slot);
  shadows_[slot] = 0;
  last_shadow_advance_ = sim_->Now();
  UpdateLagGauge();
  // A freshly added peer starts at shadow 0; if the local log is ahead the
  // retransmit path must stream it to convergence even when the primary is
  // otherwise idle (rejoin after a crash, no new writes arriving).
  ArmRetransmitTimer();
  return Status::OK();
}

Status TransportModule::RemovePeer(uint32_t slot) {
  if (slot >= kMaxPeers || !peer_slots_[slot].active) {
    return Status::NotFound("peer slot not active");
  }
  peer_slots_[slot] = PeerSlot{};
  shadows_[slot] = 0;
  active_slots_.erase(
      std::find(active_slots_.begin(), active_slots_.end(), slot));
  if (active_slots_.empty()) {
    ++rt_generation_;
    rt_armed_ = false;
    current_rto_ = config_.retransmit_timeout;
    degraded_ = false;
    if (m_degraded_) m_degraded_->Set(0);
  }
  UpdateLagGauge();
  return Status::OK();
}

void TransportModule::ClearPeers() {
  for (auto& slot : peer_slots_) slot = PeerSlot{};
  active_slots_.clear();
  std::fill(std::begin(shadows_), std::end(shadows_), 0);
  ++rt_generation_;
  rt_armed_ = false;
  current_rto_ = config_.retransmit_timeout;
  degraded_ = false;
  if (m_degraded_) m_degraded_->Set(0);
}

void TransportModule::SetTerm(uint64_t term, uint32_t writer_slot) {
  if (writer_slot >= kMaxPeers) return;
  term_ = std::max(term_, term);
  writer_terms_[writer_slot] = std::max(writer_terms_[writer_slot], term);
  member_slot_ = writer_slot;
}

bool TransportModule::AdmitRingWrite(uint32_t slot) {
  if (slot < kMaxPeers && writer_terms_[slot] >= term_) return true;
  ++fenced_writes_;
  if (m_fenced_writes_) m_fenced_writes_->Add();
  if (flightrec_ != nullptr) {
    flightrec_->Record(
        sim_->Now(), "transport",
        fr_tag_ + "fenced stale-term ring write from slot " +
            std::to_string(slot) + " (writer term " +
            std::to_string(slot < kMaxPeers ? writer_terms_[slot] : 0) +
            " < device term " + std::to_string(term_) + ")");
  }
  return false;
}

void TransportModule::ConfigureSecondary(uint64_t primary_shadow_addr) {
  primary_shadow_addr_ = primary_shadow_addr;
}

void TransportModule::SetMetrics(obs::MetricsRegistry* registry,
                                 const std::string& prefix) {
  m_mirrored_bytes_ =
      registry->GetCounter(prefix + "transport.mirrored_bytes");
  m_mirror_chunks_ = registry->GetCounter(prefix + "transport.mirror_chunks");
  m_counter_updates_ =
      registry->GetCounter(prefix + "transport.counter_updates");
  m_shadow_advances_ =
      registry->GetCounter(prefix + "transport.shadow_advances");
  m_replication_lag_bytes_ =
      registry->GetGauge(prefix + "transport.replication_lag_bytes");
  m_retransmit_rounds_ =
      registry->GetCounter(prefix + "transport.retransmit_rounds");
  m_retransmitted_bytes_ =
      registry->GetCounter(prefix + "transport.retransmitted_bytes");
  m_degraded_entries_ =
      registry->GetCounter(prefix + "transport.degraded_entries");
  m_fenced_writes_ = registry->GetCounter(prefix + "transport.fenced_writes");
  m_degraded_ = registry->GetGauge(prefix + "transport.degraded");
}

void TransportModule::SetSpans(obs::SpanRecorder* spans,
                               const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
  wait_spans_.clear();
}

uint64_t TransportModule::MinShadow() const {
  uint64_t min_shadow = ~0ull;
  for (uint32_t slot : active_slots_) {
    min_shadow = std::min(min_shadow, shadows_[slot]);
  }
  return min_shadow;
}

void TransportModule::UpdateLagGauge() {
  if (!m_replication_lag_bytes_) return;
  if (role_ != Role::kPrimary || active_slots_.empty()) {
    m_replication_lag_bytes_->Set(0);
    return;
  }
  uint64_t lag = 0;
  for (uint32_t slot : active_slots_) {
    if (local_credit_ > shadows_[slot]) {
      lag = std::max(lag, local_credit_ - shadows_[slot]);
    }
  }
  m_replication_lag_bytes_->Set(static_cast<double>(lag));
}

void TransportModule::WriteToPeerRing(uint64_t window_base,
                                      uint64_t stream_offset,
                                      const uint8_t* data, size_t len) {
  XSSD_CHECK(ring_bytes_ > 0);
  uint64_t base = window_base + IntakeAliasOffset(ring_bytes_, member_slot_);
  RingSplit split = SplitRingRange(stream_offset, len, ring_bytes_);
  fabric_->PeerWrite(base + split.offset, data, split.head,
                     pcie::StoreEngine::kWcLineBytes);
  if (split.head < len) {
    fabric_->PeerWrite(base, data + split.head, len - split.head,
                       pcie::StoreEngine::kWcLineBytes);
  }
}

void TransportModule::OnCmbArrival(uint64_t stream_offset,
                                   const uint8_t* data, size_t len) {
  if (role_ != Role::kPrimary || active_slots_.empty()) return;
  // Replication wait: arrival until every peer's shadow counter covers
  // these bytes (closed in OnShadowWrite). Ambient for the mirror fan-out
  // below so the NTB link spans nest under it.
  obs::SpanContext wait_ctx;
  if (spans_) {
    wait_ctx = spans_->StartSpan(obs::Stage::kReplicationWait, span_node_,
                                 spans_->current());
    spans_->SetRange(wait_ctx, stream_offset, stream_offset + len);
    wait_spans_.push_back(WaitSpan{stream_offset + len, wait_ctx});
  }
  obs::ScopedContext wait_scope(spans_, wait_ctx);
  // One mirror flow per secondary (no multicast — §4.2), each an
  // independent posted-write stream into the peer's ring.
  if (m_mirror_chunks_) m_mirror_chunks_->Add();
  for (uint32_t slot : active_slots_) {
    mirrored_bytes_ += len;
    if (m_mirrored_bytes_) m_mirrored_bytes_->Add(len);
    WriteToPeerRing(peer_slots_[slot].window, stream_offset, data, len);
  }
}

void TransportModule::OnLocalCredit(uint64_t credit) {
  local_credit_ = credit;
  UpdateLagGauge();
  ArmRetransmitTimer();
}

void TransportModule::UpdateTick() {
  if (role_ != Role::kSecondary) return;
  // The counter is forwarded on every cycle: the paper's bandwidth-vs-
  // freshness tradeoff (Figure 13) assumes a fixed per-period cost.
  if (primary_shadow_addr_ != 0) {
    uint8_t payload[8];
    uint64_t value = local_credit_;
    std::memcpy(payload, &value, 8);
    fabric_->PeerWrite(primary_shadow_addr_, payload, 8, 8);
    ++counter_updates_sent_;
    if (m_counter_updates_) m_counter_updates_->Add();
  }
  uint64_t generation = timer_generation_;
  sim_->Schedule(config_.update_period, [this, generation]() {
    if (generation != timer_generation_) return;
    UpdateTick();
  });
}

void TransportModule::OnShadowWrite(uint32_t index, uint64_t value) {
  // Accepted for any in-range slot: credit math only consults active
  // slots, and AddPeerAt re-zeroes the slot, so a removed peer's stale
  // pushes are harmless here.
  if (index >= kMaxPeers) return;
  if (value > shadows_[index]) {
    shadows_[index] = value;
    last_shadow_advance_ = sim_->Now();
    if (m_shadow_advances_) m_shadow_advances_->Add();
    // Progress resets the backoff: the next silent window starts small.
    current_rto_ = config_.retransmit_timeout;
    if (degraded_ && role_ == Role::kPrimary && !active_slots_.empty() &&
        MinShadow() >= local_credit_) {
      // Every peer caught back up to the local counter: leave degraded
      // mode and resume the configured protocol.
      degraded_ = false;
      if (m_degraded_) m_degraded_->Set(0);
      XSSD_LOG(kInfo) << "transport: peers caught up, leaving degraded mode";
    }
    UpdateLagGauge();
    if (spans_ && role_ == Role::kPrimary && !active_slots_.empty()) {
      uint64_t covered = MinShadow();
      while (!wait_spans_.empty() &&
             wait_spans_.front().end_offset <= covered) {
        spans_->EndSpan(wait_spans_.front().ctx);
        wait_spans_.pop_front();
      }
    }
    if (shadow_hook_) shadow_hook_(index, value);
  }
}

void TransportModule::ArmRetransmitTimer() {
  if (rt_armed_ || role_ != Role::kPrimary || active_slots_.empty() ||
      config_.retransmit_timeout == 0 || !ring_reader_) {
    return;
  }
  if (MinShadow() >= local_credit_) return;  // nothing outstanding
  if (current_rto_ == 0) current_rto_ = config_.retransmit_timeout;
  rt_armed_ = true;
  uint64_t generation = rt_generation_;
  sim_->Schedule(current_rto_, [this, generation]() {
    if (generation != rt_generation_) return;
    rt_armed_ = false;
    OnRetransmitTimer();
  });
}

void TransportModule::OnRetransmitTimer() {
  if (role_ != Role::kPrimary || active_slots_.empty()) return;
  if (MinShadow() >= local_credit_) {
    current_rto_ = config_.retransmit_timeout;
    return;
  }
  sim::SimTime silent = sim_->Now() - last_shadow_advance_;
  if (silent >= current_rto_) {
    // No shadow progress for a full timeout: assume mirror writes (or the
    // returning counter updates) were lost and re-mirror the outstanding
    // ring bytes. The backoff doubles so a dead link is not hammered.
    RetransmitRound();
    current_rto_ =
        std::min(current_rto_ * 2, config_.retransmit_backoff_max);
    if (!degraded_ && config_.degrade_timeout > 0 &&
        silent >= config_.degrade_timeout) {
      degraded_ = true;
      ++degraded_entries_;
      if (m_degraded_entries_) m_degraded_entries_->Add();
      if (m_degraded_) m_degraded_->Set(1);
      XSSD_LOG(kWarning)
          << "transport: no shadow progress for " << sim::ToUs(silent)
          << " us, entering degraded (un-replicated) mode";
    }
  }
  // Shadows may have advanced since the timer was armed; either way, keep
  // watching until the lag clears.
  ArmRetransmitTimer();
}

void TransportModule::RetransmitRange(uint64_t window_base, uint64_t from) {
  // Bytes older than one ring length have been overwritten locally and can
  // no longer be replayed; a peer that far behind must be re-seeded by the
  // host (degraded mode covers the interim).
  uint64_t floor =
      local_credit_ > ring_bytes_ ? local_credit_ - ring_bytes_ : 0;
  from = std::max(from, floor);
  std::vector<uint8_t> buf;
  for (uint64_t off = from; off < local_credit_;) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(
        config_.retransmit_chunk, local_credit_ - off));
    buf.resize(n);
    ring_reader_(off, buf.data(), n);
    WriteToPeerRing(window_base, off, buf.data(), n);
    retransmitted_bytes_ += n;
    if (m_retransmitted_bytes_) m_retransmitted_bytes_->Add(n);
    off += n;
  }
}

void TransportModule::RetransmitRound() {
  ++retransmit_rounds_;
  if (m_retransmit_rounds_) m_retransmit_rounds_->Add();
  for (uint32_t slot : active_slots_) {
    if (shadows_[slot] < local_credit_) {
      RetransmitRange(peer_slots_[slot].window, shadows_[slot]);
    }
  }
}

uint64_t TransportModule::EffectiveCredit(uint64_t local_credit) const {
  if (role_ != Role::kPrimary || active_slots_.empty()) return local_credit;
  // Degraded mode: every lagging peer has been silent past the degrade
  // timeout. The primary falls back to its local counter — logging keeps
  // its durability on this device only — until the peers catch back up.
  if (degraded_) return local_credit;
  switch (protocol_) {
    case ReplicationProtocol::kLazy:
      // Lazy replication [58]: the primary proceeds independently.
      return local_credit;
    case ReplicationProtocol::kChain:
      // Chain replication [72]: only the tail's counter matters.
      return std::min(local_credit, shadows_[active_slots_.back()]);
    case ReplicationProtocol::kEager: {
      // Eager: the counter with the most significant delay among the
      // secondaries (paper §4.2) — an entry is persisted only if it is
      // persisted everywhere.
      uint64_t credit = local_credit;
      for (uint32_t slot : active_slots_) {
        credit = std::min(credit, shadows_[slot]);
      }
      return credit;
    }
  }
  return local_credit;
}

uint64_t TransportModule::StatusWord(uint64_t local_credit) const {
  uint64_t word = static_cast<uint64_t>(role_) & StatusBits::kRoleMask;
  word |= (static_cast<uint64_t>(active_slots_.size())
           << StatusBits::kPeerCountShift) &
          StatusBits::kPeerCountMask;
  if (role_ == Role::kPrimary && !active_slots_.empty()) {
    if (degraded_) word |= StatusBits::kDegraded;
    uint64_t min_shadow = MinShadow();
    if (min_shadow < local_credit &&
        sim_->Now() - last_shadow_advance_ > config_.stall_timeout) {
      word |= StatusBits::kReplicationStalled;
    }
  }
  return word;
}

}  // namespace xssd::core
