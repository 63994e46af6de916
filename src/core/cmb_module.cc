#include "core/cmb_module.h"

#include <cstring>

#include "common/logging.h"
#include "core/registers.h"
#include "fault/fault_injector.h"

namespace xssd::core {

namespace {
/// Raw SRAM port bandwidth.
constexpr double kSramBytesPerSec = 4e9;
/// Raw DRAM port bandwidth (DDR3 through the 64-bit bus).
constexpr double kDramBytesPerSec = 2e9;

double BackingRate(const CmbConfig& config) {
  if (config.backing == BackingKind::kSram) return kSramBytesPerSec;
  return kDramBytesPerSec * config.dram_available_fraction;
}
}  // namespace

CmbModule::CmbModule(sim::Simulator* sim, const CmbConfig& config)
    : sim_(sim),
      config_(config),
      backing_bytes_per_sec_(BackingRate(config)),
      backing_(sim, backing_bytes_per_sec_),
      ring_(config.ring_bytes) {
  XSSD_CHECK(config_.queue_bytes > 0);
  XSSD_CHECK(config_.ring_bytes >= config_.queue_bytes);
}

void CmbModule::SetMetrics(obs::MetricsRegistry* registry,
                           const std::string& prefix) {
  m_append_bytes_ = registry->GetCounter(prefix + "cmb.append_bytes");
  m_append_chunks_ = registry->GetCounter(prefix + "cmb.append_chunks");
  m_persisted_bytes_ = registry->GetCounter(prefix + "cmb.persisted_bytes");
  m_overwrite_violations_ =
      registry->GetCounter(prefix + "cmb.overwrite_violations");
  m_powerloss_drains_ = registry->GetCounter(prefix + "cmb.powerloss_drains");
  m_staging_occupancy_ =
      registry->GetGauge(prefix + "cmb.staging_occupancy_bytes");
  m_credit_ = registry->GetGauge(prefix + "cmb.credit");
}

uint64_t CmbModule::InferStreamOffset(uint64_t ring_offset) const {
  XSSD_CHECK(ring_offset < config_.ring_bytes);
  uint64_t base = credit_;
  uint64_t base_ring = base % config_.ring_bytes;
  uint64_t delta =
      (ring_offset + config_.ring_bytes - base_ring) % config_.ring_bytes;
  return base + delta;
}

void CmbModule::OnRingWrite(uint64_t ring_offset, const Bytes& data) {
  const size_t len = data.size();
  XSSD_CHECK(ring_offset + len <= config_.ring_bytes);
  uint64_t stream_offset = InferStreamOffset(ring_offset);

  // Ring-overwrite check: a conforming host never writes bytes that would
  // clobber data the Destage module has not yet moved out.
  if (stream_offset + len > destaged_floor_ + config_.ring_bytes) {
    if (overwrite_violations_ == 0) {
      XSSD_LOG(kWarning) << "CMB write overwrote un-destaged ring data "
                            "(advisory flow control not respected; "
                            "counting silently from here on)";
    }
    ++overwrite_violations_;
    if (m_overwrite_violations_) m_overwrite_violations_->Add();
  }

  // Open the chunk's staging span under the ambient request context (the
  // append root on a primary, the NTB link span on a secondary) and make
  // it current for the synchronous arrival fan-out, so the transport
  // mirror nests under the chunk that triggered it.
  obs::SpanContext span_ctx;
  if (spans_) {
    span_ctx = spans_->StartSpan(obs::Stage::kCmbStage, span_node_,
                                 spans_->current());
    spans_->SetRange(span_ctx, stream_offset, stream_offset + len);
  }
  obs::ScopedContext span_scope(spans_, span_ctx);

  if (arrival_observer_) arrival_observer_(stream_offset, data);
  if (arrival_hook_) arrival_hook_(stream_offset, data);

  if (m_append_bytes_) {
    m_append_bytes_->Add(len);
    m_append_chunks_->Add();
  }

  // Stage, then proactively dequeue into backing memory (Figure 5, 1→2).
  staging_.push_back(Staged{stream_offset, data, span_ctx});
  staging_bytes_ += len;
  if (m_staging_occupancy_) {
    m_staging_occupancy_->Set(static_cast<double>(staging_bytes_));
  }
  if (test_only_early_credit_) {
    // Planted Figure 5 ordering bug: acknowledge on arrival, before the
    // chunk is persistent. See set_test_only_early_credit().
    received_.Insert(stream_offset, stream_offset + len);
    highest_received_ = std::max(highest_received_, stream_offset + len);
    AdvanceCredit();
  }

  backing_.Acquire(len, [this, epoch = drain_epoch_]() {
    // Stale events from before a power-loss drain or reboot are ignored.
    if (epoch != drain_epoch_ || staging_.empty()) return;
    Staged chunk = std::move(staging_.front());
    staging_.pop_front();
    staging_bytes_ -= chunk.data.size();
    if (m_staging_occupancy_) {
      m_staging_occupancy_->Set(static_cast<double>(staging_bytes_));
    }
    Persist(chunk.stream_offset, chunk.data, chunk.span);
  });
}

void CmbModule::SetFaultInjector(fault::FaultInjector* injector,
                                 std::string site_prefix) {
  injector_ = injector;
  site_prefix_ = std::move(site_prefix);
}

void CmbModule::SetSpans(obs::SpanRecorder* spans,
                         const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

void CmbModule::Persist(uint64_t stream_offset, const Bytes& data,
                        obs::SpanContext span) {
  if (injector_ != nullptr &&
      injector_->CrashPoint(site_prefix_ + "cmb.persist")) {
    // The crash handler ran inside CrashPoint; this chunk was already off
    // the staging queue and dies here, leaving a gap above the credit.
    return;
  }
  // Restore the chunk's context so credit-hook work (destage pump, shadow
  // push) nests under the chunk whose persistence triggered it.
  obs::ScopedContext span_scope(spans_, span);
  RingSplit split =
      SplitRingRange(stream_offset, data.size(), config_.ring_bytes);
  std::memcpy(ring_.data() + split.offset, data.data(), split.head);
  if (split.head < data.size()) {
    std::memcpy(ring_.data(), data.data() + split.head,
                data.size() - split.head);
  }
  received_.Insert(stream_offset, stream_offset + data.size());
  highest_received_ =
      std::max(highest_received_, stream_offset + data.size());
  if (m_persisted_bytes_) m_persisted_bytes_->Add(data.size());
  if (spans_) spans_->EndSpan(span);
  AdvanceCredit();
}

void CmbModule::AdvanceCredit() {
  // Figure 5 step 3: the counter is incremented only after data reached
  // backing memory, and only over contiguous chunks.
  uint64_t new_credit = received_.ContiguousEnd(credit_);
  if (new_credit != credit_) {
    credit_ = new_credit;
    received_.TrimBelow(destaged_floor_);  // bounded metadata
    if (m_credit_) m_credit_->Set(static_cast<double>(credit_));
    if (credit_observer_) credit_observer_(credit_);
    if (credit_hook_) credit_hook_(credit_);
  }
}

void CmbModule::ReadRing(uint64_t ring_offset, uint8_t* out,
                         size_t len) const {
  XSSD_CHECK(ring_offset + len <= config_.ring_bytes);
  std::memcpy(out, ring_.data() + ring_offset, len);
}

void CmbModule::CopyOut(uint64_t stream_offset, uint8_t* out,
                        size_t len) const {
  XSSD_CHECK(stream_offset + len <= credit_);
  XSSD_CHECK(stream_offset + config_.ring_bytes >= credit_);
  RingSplit split = SplitRingRange(stream_offset, len, config_.ring_bytes);
  std::memcpy(out, ring_.data() + split.offset, split.head);
  if (split.head < len) {
    std::memcpy(out + split.head, ring_.data(), len - split.head);
  }
}

bool CmbModule::HasPendingBeyondCredit() const {
  return staging_bytes_ > 0 || received_.HasGapAfter(credit_) ||
         highest_received_ > credit_;
}

void CmbModule::DrainStagingForPowerLoss() {
  // The supercaps keep the SRAM queue and PM alive; everything already
  // inside the device is flushed to the ring. Bytes still on the PCIe link
  // never arrived and are simply absent (potentially leaving a gap).
  ++drain_epoch_;
  if (m_powerloss_drains_) m_powerloss_drains_->Add();
  while (!staging_.empty()) {
    Staged chunk = std::move(staging_.front());
    staging_.pop_front();
    staging_bytes_ -= chunk.data.size();
    Persist(chunk.stream_offset, chunk.data, chunk.span);
  }
  if (m_staging_occupancy_) m_staging_occupancy_->Set(0);
}

void CmbModule::AbandonStagingForCrash() {
  // No supercap flush: queued chunks never reach backing memory. The PM
  // ring and credit keep whatever had persisted before the crash.
  ++drain_epoch_;
  staging_.clear();
  staging_bytes_ = 0;
  if (m_staging_occupancy_) m_staging_occupancy_->Set(0);
}

void CmbModule::TruncateTo(uint64_t offset) {
  ++drain_epoch_;
  staging_.clear();
  staging_bytes_ = 0;
  received_.TrimAbove(offset);
  credit_ = std::min(credit_, offset);
  highest_received_ = std::min(highest_received_, offset);
  destaged_floor_ = std::min(destaged_floor_, offset);
  if (m_staging_occupancy_) m_staging_occupancy_->Set(0);
  if (m_credit_) m_credit_->Set(static_cast<double>(credit_));
}

void CmbModule::ResetForReboot() {
  ++drain_epoch_;
  ring_ = ZeroedTable<uint8_t>(config_.ring_bytes);
  received_.Clear();
  staging_.clear();
  staging_bytes_ = 0;
  credit_ = 0;
  highest_received_ = 0;
  destaged_floor_ = 0;
  if (m_staging_occupancy_) m_staging_occupancy_->Set(0);
  if (m_credit_) m_credit_->Set(0);
}

}  // namespace xssd::core
