#include "ftl/scrub.h"

#include <algorithm>
#include <memory>

#include "ftl/mapping.h"

namespace xssd::ftl {

PatrolScrubber::PatrolScrubber(sim::Simulator* sim, Ftl* ftl,
                               flash::Array* array, ScrubConfig config)
    : sim_(sim), ftl_(ftl), array_(array), config_(config) {}

void PatrolScrubber::SetMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  m_ticks_ = registry->GetCounter(prefix + "scrub.ticks");
  m_deferred_busy_ = registry->GetCounter(prefix + "scrub.deferred_busy");
  m_patrol_reads_ = registry->GetCounter(prefix + "scrub.patrol_reads");
  m_patrol_uncorrectable_ =
      registry->GetCounter(prefix + "scrub.patrol_uncorrectable");
  m_refreshes_ = registry->GetCounter(prefix + "scrub.refreshes");
  m_escalations_ = registry->GetCounter(prefix + "scrub.escalations");
  m_retired_blocks_ = registry->GetCounter(prefix + "scrub.retired_blocks");
  m_refresh_pressure_ = registry->GetGauge(prefix + "scrub.refresh_pressure");
}

void PatrolScrubber::Start() {
  if (running_ || !config_.enabled) return;
  running_ = true;
  last_refill_ = sim_->Now();
  sim_->Schedule(config_.scan_interval, [this]() { Tick(); });
}

void PatrolScrubber::Stop() { running_ = false; }

uint64_t PatrolScrubber::PickRiskiest(double* ber_out) const {
  const flash::Geometry& geom = array_->geometry();
  uint64_t best = kUnmapped;
  double best_ber = 0.0;
  for (uint64_t b : ftl_->allocator().sealed_blocks()) {
    if (ftl_->inflight_programs(b) != 0) continue;
    if (ftl_->page_map().ValidCount(b) == 0) continue;  // nothing to protect
    double ber = array_->PredictedBer(flash::AddressOfBlock(geom, b));
    if (best == kUnmapped || ber > best_ber) {
      best = b;
      best_ber = ber;
    }
  }
  if (ber_out != nullptr) *ber_out = best_ber;
  return best;
}

void PatrolScrubber::Tick() {
  if (!running_) return;
  // Refill the token bucket; cap at one block's worth so a long idle
  // stretch cannot bank an unbounded read burst.
  const flash::Geometry& geom = array_->geometry();
  sim::SimTime now = sim_->Now();
  budget_ += config_.pages_per_sec * sim::ToSec(now - last_refill_);
  budget_ = std::min(budget_, static_cast<double>(geom.pages_per_block));
  last_refill_ = now;
  // Re-arm before doing any work so the cadence is independent of it.
  sim_->Schedule(config_.scan_interval, [this]() { Tick(); });

  // Idle gate: patrol only when the flash scheduler has no foreground
  // work. Deferral costs nothing — the budget keeps accruing.
  Scheduler& sched = ftl_->scheduler();
  uint64_t load = sched.inflight() + sched.queued(IoClass::kConventional) +
                  sched.queued(IoClass::kDestage);
  if (load >= config_.busy_threshold) {
    ++stats_.deferred_busy;
    if (m_deferred_busy_) m_deferred_busy_->Add();
    return;
  }
  ++stats_.ticks;
  if (m_ticks_) m_ticks_->Add();

  double ber = 0.0;
  uint64_t block = PickRiskiest(&ber);
  if (block == kUnmapped) {
    if (m_refresh_pressure_) m_refresh_pressure_->Set(0.0);
    return;
  }

  double mean_errors = ber * geom.page_bytes * 8.0;
  double refresh_at =
      config_.refresh_margin * array_->reliability().ecc_correctable_bits;
  uint32_t valid = ftl_->page_map().ValidCount(block);
  if (m_refresh_pressure_) {
    double budget_bits = array_->reliability().ecc_correctable_bits;
    m_refresh_pressure_->Set(budget_bits > 0 ? mean_errors / budget_bits
                                             : 0.0);
  }
  if (mean_errors >= refresh_at && budget_ >= static_cast<double>(valid)) {
    uint64_t retires_before = ftl_->stats().reliability_retires;
    if (ftl_->RefreshBlock(block, [this, retires_before](Status) {
          // A refresh that hit an unreadable page degrades to a retire
          // inside the FTL; surface that in the scrub stats.
          if (ftl_->stats().reliability_retires > retires_before) {
            ++stats_.retired_blocks;
            if (m_retired_blocks_) m_retired_blocks_->Add();
          }
        })) {
      budget_ -= static_cast<double>(valid);
      ++stats_.refreshes;
      if (m_refreshes_) m_refreshes_->Add();
    }
    return;
  }
  PatrolBlock(block);
}

void PatrolScrubber::PatrolBlock(uint64_t block) {
  const flash::Geometry& geom = array_->geometry();
  // One escalation per patrolled block: the first Corruption retires it;
  // later completions from the same sweep must not retrigger.
  auto escalated = std::make_shared<bool>(false);
  for (uint32_t page = 0; page < geom.pages_per_block; ++page) {
    if (budget_ < 1.0) break;
    uint64_t ppn = block * geom.pages_per_block + page;
    if (ftl_->page_map().ReverseLookup(ppn) == kUnmapped) continue;
    budget_ -= 1.0;
    ++stats_.patrol_reads;
    if (m_patrol_reads_) m_patrol_reads_->Add();
    flash::Address addr = flash::AddressOfPage(geom, ppn);
    ftl_->scheduler().Read(
        IoClass::kConventional, addr,
        [this, block, escalated](Status status, Bytes) {
          if (!status.IsCorruption()) return;
          ++stats_.patrol_uncorrectable;
          if (m_patrol_uncorrectable_) m_patrol_uncorrectable_->Add();
          if (*escalated) return;
          *escalated = true;
          if (ftl_->EscalateBlock(block, [this](Status status) {
                if (!status.ok()) return;
                ++stats_.retired_blocks;
                if (m_retired_blocks_) m_retired_blocks_->Add();
              })) {
            ++stats_.escalations;
            if (m_escalations_) m_escalations_->Add();
          }
        });
  }
}

}  // namespace xssd::ftl
