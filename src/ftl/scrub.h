#ifndef XSSD_FTL_SCRUB_H_
#define XSSD_FTL_SCRUB_H_

#include <cstdint>
#include <string>

#include "flash/array.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::ftl {

/// \brief Patrol-scrub configuration.
struct ScrubConfig {
  /// Master switch. Off by default: the scrubber's self-rearming tick
  /// would keep an idle simulator's event queue from draining, so only
  /// deployments that pump the simulator (RunUntil/RunFor) enable it.
  bool enabled = false;
  /// Time between patrol ticks. Each tick inspects at most one block.
  sim::SimTime scan_interval = sim::Ms(5);
  /// Patrol-read budget (token bucket refilled at this rate, capped at one
  /// block's worth of pages). The scrubber never issues more reads per
  /// second than this, so it cannot starve foreground traffic even when
  /// the idle gate mis-predicts.
  double pages_per_sec = 2000.0;
  /// Idle gate: defer the tick (counting scrub.deferred_busy) while the
  /// flash scheduler has this many or more operations queued or in flight.
  uint64_t busy_threshold = 1;
  /// Refresh a block when its predicted mean bit errors per page reach
  /// this fraction of the ECC correction budget.
  double refresh_margin = 0.5;
};

/// Patrol-scrub statistics.
struct ScrubStats {
  uint64_t ticks = 0;            ///< patrol ticks that ran (not deferred)
  uint64_t deferred_busy = 0;    ///< ticks skipped for foreground traffic
  uint64_t patrol_reads = 0;     ///< pages patrol-read
  uint64_t patrol_uncorrectable = 0;  ///< patrol reads that found decay
  uint64_t refreshes = 0;        ///< proactive block refreshes started
  uint64_t escalations = 0;      ///< patrol-triggered retire chains
  uint64_t retired_blocks = 0;   ///< blocks the scrubber retired
};

/// \brief Background patrol scrubber: the proactive half of the media-
/// reliability story.
///
/// Every `scan_interval` of idle time it ranks the FTL's sealed, quiesced
/// blocks by predicted raw bit-error rate (retention dwell + read disturb,
/// via flash::Array::PredictedBer) and either
///  - refreshes the riskiest block (Ftl::RefreshBlock — relocate + erase,
///    resetting its dwell and disturb counters) when its predicted error
///    mean crosses `refresh_margin` of the ECC budget, or
///  - patrol-reads its valid pages within the `pages_per_sec` token budget
///    to surface latent uncorrectables early; a patrol read that comes
///    back Corruption escalates the block (Ftl::EscalateBlock).
///
/// The scrubber issues only conventional-class I/O through the FTL's
/// scheduler, so destage priority is preserved by construction; the token
/// budget and idle gate bound how much conventional bandwidth it takes.
class PatrolScrubber {
 public:
  PatrolScrubber(sim::Simulator* sim, Ftl* ftl, flash::Array* array,
                 ScrubConfig config);

  PatrolScrubber(const PatrolScrubber&) = delete;
  PatrolScrubber& operator=(const PatrolScrubber&) = delete;

  /// Arm the periodic tick (no-op when already running or not enabled).
  void Start();
  /// Disarm: the pending tick fires but does nothing and does not re-arm.
  void Stop();
  bool running() const { return running_; }

  const ScrubConfig& config() const { return config_; }
  const ScrubStats& stats() const { return stats_; }

  /// Register `scrub.*` metrics under `prefix`.
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

 private:
  void Tick();
  /// Riskiest sealed + quiesced block, or kUnmapped when none qualify.
  uint64_t PickRiskiest(double* ber_out) const;
  /// Patrol-read up to `budget_` valid pages of `block`.
  void PatrolBlock(uint64_t block);

  sim::Simulator* sim_;
  Ftl* ftl_;
  flash::Array* array_;
  ScrubConfig config_;
  bool running_ = false;
  double budget_ = 0.0;            ///< token bucket, in pages
  sim::SimTime last_refill_ = 0;
  ScrubStats stats_;

  // Observability (null until SetMetrics).
  obs::Counter* m_ticks_ = nullptr;
  obs::Counter* m_deferred_busy_ = nullptr;
  obs::Counter* m_patrol_reads_ = nullptr;
  obs::Counter* m_patrol_uncorrectable_ = nullptr;
  obs::Counter* m_refreshes_ = nullptr;
  obs::Counter* m_escalations_ = nullptr;
  obs::Counter* m_retired_blocks_ = nullptr;
  /// Riskiest block's expected raw errors as a fraction of the ECC
  /// budget; crossing refresh_margin triggers a refresh. Updated each
  /// non-deferred tick — the watchdog's view of media health.
  obs::Gauge* m_refresh_pressure_ = nullptr;
};

}  // namespace xssd::ftl

#endif  // XSSD_FTL_SCRUB_H_
