#include "ntb/ntb.h"

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "pcie/tlp.h"

namespace xssd::ntb {

NtbAdapter::NtbAdapter(sim::Simulator* sim, NtbConfig config, std::string name)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      link_(sim, config.bytes_per_sec) {
  scratchpad_.resize(config_.scratchpad_bytes, 0);
  // The NTB hop is the only cross-fabric edge in the module graph, so its
  // cut-through latency is the simulator's cross-domain lookahead: no
  // forwarded write can land on the far fabric sooner than this.
  if (config_.hop_latency > 0) sim_->DeclareLookahead(config_.hop_latency);
}

void NtbAdapter::SetMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  m_wire_bytes_ = registry->GetCounter(prefix + "ntb.wire_bytes");
  m_payload_bytes_ = registry->GetCounter(prefix + "ntb.payload_bytes");
  m_packets_ = registry->GetCounter(prefix + "ntb.packets");
  m_forwards_ = registry->GetCounter(prefix + "ntb.forwards");
  m_dropped_writes_ = registry->GetCounter(prefix + "ntb.dropped_writes");
  m_dropped_bytes_ = registry->GetCounter(prefix + "ntb.dropped_bytes");
  m_link_busy_us_ = registry->GetGauge(prefix + "ntb.link_busy_us");
}

void NtbAdapter::SetSpans(obs::SpanRecorder* spans,
                          const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

Status NtbAdapter::AddWindow(uint64_t offset, uint64_t size,
                             pcie::PcieFabric* remote_fabric,
                             uint64_t remote_base) {
  if (remote_fabric == nullptr || size == 0) {
    return Status::InvalidArgument("bad NTB window");
  }
  for (const Window& w : windows_) {
    bool disjoint = offset + size <= w.offset || w.offset + w.size <= offset;
    if (!disjoint) return Status::InvalidArgument("NTB windows overlap");
  }
  windows_.push_back(Window{offset, size, remote_fabric, remote_base});
  return Status::OK();
}

const NtbAdapter::Window* NtbAdapter::FindWindow(uint64_t offset) const {
  for (const Window& w : windows_) {
    if (offset >= w.offset && offset < w.offset + w.size) return &w;
  }
  return nullptr;
}

void NtbAdapter::OnMmioWrite(uint64_t offset, const uint8_t* data,
                             size_t len) {
  if (config_.scratchpad_bytes > 0 && offset >= config_.scratchpad_offset &&
      offset + len <= config_.scratchpad_offset + config_.scratchpad_bytes) {
    // Scratchpad store: terminate locally, never forward. An inbound
    // link-down window loses it the same way it loses a forwarded write —
    // a heartbeat the failure detector simply never sees.
    if (scratchpad_injector_ != nullptr &&
        scratchpad_injector_->NtbForwardDecision().action ==
            fault::FaultInjector::LinkAction::kDrop) {
      return;
    }
    std::copy(data, data + len,
              scratchpad_.begin() +
                  static_cast<ptrdiff_t>(offset - config_.scratchpad_offset));
    return;
  }
  const Window* window = FindWindow(offset);
  if (window == nullptr || offset + len > window->offset + window->size) {
    XSSD_LOG(kWarning) << name_ << ": write outside any NTB window";
    return;
  }
  uint64_t window_offset = offset - window->offset;

  sim::SimTime stall_delay = 0;
  if (injector_ != nullptr) {
    auto decision = injector_->NtbForwardDecision();
    if (decision.action == fault::FaultInjector::LinkAction::kDrop) {
      // Link is down: the posted write vanishes on the cable. The sender
      // gets no error — recovering these bytes is the transport module's
      // retransmit job.
      ++dropped_writes_;
      dropped_payload_bytes_ += len;
      if (m_dropped_writes_) {
        m_dropped_writes_->Add();
        m_dropped_bytes_->Add(len);
      }
      return;
    }
    if (decision.action == fault::FaultInjector::LinkAction::kStall) {
      stall_delay = decision.delay;
    }
  }

  uint64_t wire = pcie::WireBytesFor(len, config_.forward_chunk);
  uint64_t packets = pcie::TlpCountFor(len, config_.forward_chunk);
  forwarded_wire_bytes_ += wire;
  forwarded_payload_bytes_ += len;
  forwarded_packets_ += packets;
  if (m_wire_bytes_) {
    m_wire_bytes_->Add(wire);
    m_payload_bytes_->Add(len);
    m_packets_->Add(packets);
    m_forwards_->Add();
  }

  std::vector<uint8_t> copy(data, data + len);
  sim::SimTime cable_done = link_.Acquire(wire);
  if (m_link_busy_us_) m_link_busy_us_->Set(sim::ToUs(link_.busy_time()));
  sim::SimTime delivered_at = cable_done + config_.hop_latency + stall_delay;
  // The link span covers cable serialisation plus the adapter hop; its end
  // is known now, so stamp it up front. The captured context is restored on
  // delivery so remote-side spans nest under this transfer.
  obs::SpanContext link_ctx;
  if (spans_) {
    link_ctx = spans_->StartSpan(obs::Stage::kNtbLink, span_node_,
                                 spans_->current());
    spans_->EndSpanAt(link_ctx, delivered_at);
  }
  // Deliver in the remote fabric's scheduler domain. When that differs from
  // ours, delivered_at >= now + hop_latency >= now + lookahead satisfies the
  // cross-domain contract by construction.
  sim_->ScheduleAtIn(
      window->remote->domain(), delivered_at,
      [this, link_ctx, remote = window->remote,
       addr = window->remote_base + window_offset, copy = std::move(copy),
       chunk = config_.forward_chunk]() {
        obs::ScopedContext scope(spans_, link_ctx);
        // Address translation is the only transformation NTB performs
        // (§2.3); inject into the remote fabric as peer-to-peer traffic.
        remote->PeerWrite(addr, copy.data(), copy.size(), chunk);
      });
}

void NtbAdapter::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  if (config_.scratchpad_bytes > 0 && offset >= config_.scratchpad_offset &&
      offset + len <= config_.scratchpad_offset + config_.scratchpad_bytes) {
    auto base = scratchpad_.begin() +
                static_cast<ptrdiff_t>(offset - config_.scratchpad_offset);
    std::copy(base, base + static_cast<ptrdiff_t>(len), out);
    return;
  }
  // Cross-NTB reads exist but are slow and unused by the Villars protocol
  // (all coordination is done with posted writes). Serve them functionally
  // for completeness.
  const Window* window = FindWindow(offset);
  if (window == nullptr || offset + len > window->offset + window->size) {
    std::fill(out, out + len, 0);
    return;
  }
  uint64_t remote_addr = window->remote_base + (offset - window->offset);
  Status status = window->remote->FunctionalRead(remote_addr, out, len);
  if (!status.ok()) std::fill(out, out + len, 0);
}

}  // namespace xssd::ntb
