#ifndef XSSD_CORE_DESTAGE_MODULE_H_
#define XSSD_CORE_DESTAGE_MODULE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/cmb_module.h"
#include "core/config.h"
#include "core/page_format.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::core {

/// Re-issue attempts when a destage page write fails even after the FTL's
/// own bad-block retries. Retries reuse the same sequence number and ring
/// slot so the recovery chain walk is unaffected.
inline constexpr uint32_t kMaxWriteRetries = 4;

/// Destage statistics.
struct DestageStats {
  uint64_t pages_written = 0;
  uint64_t partial_pages = 0;     ///< pages cut short by latency threshold
  uint64_t filler_bytes = 0;
  uint64_t stream_bytes = 0;      ///< payload destaged
  uint64_t write_retries = 0;     ///< re-issues after a failed page write
  uint64_t ring_trims = 0;        ///< wrapped slots invalidated before reuse
};

/// \brief The Destage module (paper §4.3): moves the PM ring's persisted
/// prefix into a ring of logical blocks on the conventional side.
///
/// It monitors the credit counter, bundles ring-head data into flash pages
/// (adding filler when the latency threshold forces a partial page), and
/// writes them through the FTL with IoClass::kDestage so the channel
/// scheduler can apply the opportunistic-destaging policies. Destaging is
/// pipelined across dies but the destaged counter advances strictly in
/// stream order.
class DestageModule {
 public:
  DestageModule(sim::Simulator* sim, ftl::Ftl* ftl, CmbModule* cmb,
                const DestageConfig& config, uint32_t epoch = 0);

  DestageModule(const DestageModule&) = delete;
  DestageModule& operator=(const DestageModule&) = delete;

  /// Hooked to the CMB credit counter; wakes the destage loop.
  void OnCreditAdvance(uint64_t credit);

  /// Stream bytes destaged to the conventional side (in-order).
  uint64_t destaged() const { return destaged_; }

  /// Next destage-ring slot (sequence number; LBA = start + seq % count).
  uint64_t next_sequence() const { return next_sequence_; }

  /// Stream bytes issued to flash so far (may run ahead of destaged()).
  uint64_t destage_cursor() const { return destage_cursor_; }

  uint64_t ring_start_lba() const { return config_.ring_start_lba; }
  uint64_t ring_lba_count() const { return config_.ring_lba_count; }

  /// Epoch stamped into every page header.
  uint32_t epoch() const { return epoch_; }

  /// Restart the destage stream in `epoch`, in place: the module then
  /// matches one newly built at that epoch (progress, stats, barrier,
  /// latency threshold), while its instrumentation and observers stay
  /// attached. Events scheduled before the reset — latency timers, flash
  /// completions, retry backoffs, an unfinished power-loss destage (whose
  /// `done` never fires) — are fenced off by a generation count: a stale
  /// page completion closes its span and changes nothing else.
  void Reset(uint32_t epoch);

  /// Advanced-API barrier: stream offsets >= `stream_offset` are withheld
  /// from destaging (active x_alloc areas). ~0 disables.
  void SetBarrier(uint64_t stream_offset);
  uint64_t barrier() const { return barrier_; }

  /// Crash protocol step 2 (paper §4.1): destage everything persisted
  /// (stopping at the credit, which by construction stops at the first
  /// gap), bounded by the supercap energy budget in pages. `done` fires
  /// when the ring is fully drained or the budget is exhausted.
  void DestageAllForPowerLoss(uint32_t page_budget,
                              std::function<void()> done);

  /// Freeze/unfreeze (used during power-loss handling to stop the normal
  /// background loop).
  void set_frozen(bool frozen) { frozen_ = frozen; }

  /// Hard crash: freeze permanently and cancel pending write retries (a
  /// halted device issues no more flash traffic). Unlike set_frozen this
  /// is not undone by the power-loss destage path.
  void HaltForCrash() {
    frozen_ = true;
    halted_ = true;
  }

  const DestageStats& stats() const { return stats_; }

  /// Register this module's metrics under `prefix` + "destage.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each emitted page opens a
  /// destage.page span (emit → durable, spanning retries) covering its
  /// stream extent; pages cut by the latency timer have no ambient request
  /// context and are recorded as orphans joined by offset range.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a fault injector (nullptr detaches). Crash sites:
  /// "destage.emit_page" (before a page is built/issued) and
  /// "destage.page_complete" (page durable in flash, progress accounting
  /// lost). `site_prefix` (e.g. "pri/") namespaces the sites per device.
  void SetFaultInjector(fault::FaultInjector* injector,
                        std::string site_prefix);

  /// Attach a flight recorder (nullptr detaches). Records ring wraps —
  /// each reuse of a log-ring slot trims the superseded page, a rare,
  /// load-bearing event worth having in every post-mortem. `node_tag`
  /// prefixes messages per device (e.g. "pri").
  void SetFlightRecorder(obs::FlightRecorder* recorder,
                         const std::string& node_tag = "") {
    flightrec_ = recorder;
    fr_tag_ = node_tag.empty() ? "" : node_tag + " ";
  }

  // -- Conformance observation taps (src/check) -----------------------------
  // Pure observers, called in addition to the normal control flow; the
  // checker's reference model cross-checks each step. Detach with nullptr.

  /// A page was built and issued (fires strictly in stream order, before
  /// the flash write; retried pages do not re-fire).
  using EmitObserver =
      std::function<void(const DestagePageHeader& header, uint64_t lba)>;
  void SetEmitObserver(EmitObserver observer) {
    emit_observer_ = std::move(observer);
  }

  /// A page's completion was accounted — the extent [begin, end) is durable
  /// in flash (fires in completion order, which may reorder across dies).
  using DurableObserver = std::function<void(uint64_t begin, uint64_t end)>;
  void SetDurableObserver(DurableObserver observer) {
    durable_observer_ = std::move(observer);
  }

  /// The in-order destaged counter advanced.
  using DestagedObserver = std::function<void(uint64_t destaged)>;
  void SetDestagedObserver(DestagedObserver observer) {
    destaged_observer_ = std::move(observer);
  }

 private:
  /// Payload capacity of one destage page.
  uint32_t Capacity() const {
    return DestagePayloadCapacity(ftl_->page_bytes());
  }

  /// Destage eligible data: full pages immediately; partial pages once the
  /// latency threshold expires.
  void Pump();

  /// Emit one page covering [destage_cursor_, destage_cursor_ + len).
  void EmitPage(uint32_t len);

  /// Issue (or re-issue) a built page to the FTL. Retries keep the same
  /// sequence number and ring slot — the recovery chain walk depends on
  /// consecutive sequences with chaining stream offsets, so a retried page
  /// must land exactly where the failed attempt would have.
  void IssuePage(uint64_t lba, Bytes page, uint64_t begin, uint64_t end,
                 uint32_t len, sim::SimTime issued_at, uint32_t attempt,
                 obs::SpanContext span);

  void ArmTimer();

  /// One power-loss destage: what DestageAllForPowerLoss restores and
  /// reports when it ends. Each poll event holds it.
  struct PowerLossDrain {
    uint64_t generation;
    uint32_t page_budget;
    uint64_t pages_before;
    uint64_t saved_barrier;
    std::function<void()> done;
  };
  /// Finish the power-loss destage if drained or out of budget; otherwise
  /// pump and poll again in 5 us.
  void PollPowerLossDrain(std::unique_ptr<PowerLossDrain> drain);

  sim::Simulator* sim_;
  ftl::Ftl* ftl_;
  CmbModule* cmb_;
  const DestageConfig config_;
  uint32_t epoch_;
  /// Bumped by Reset(); events carry the value they were scheduled under.
  uint64_t generation_ = 0;

  /// config_.latency_threshold, lifted to 0 while a power-loss destage runs.
  sim::SimTime latency_threshold_;
  uint64_t credit_seen_ = 0;
  uint64_t destaged_ = 0;        ///< contiguous, completion-ordered
  uint64_t destage_cursor_ = 0;  ///< issued (may be ahead of destaged_)
  uint64_t next_sequence_ = 0;
  uint64_t barrier_ = ~0ull;
  uint32_t inflight_ = 0;
  bool timer_armed_ = false;
  bool frozen_ = false;
  bool halted_ = false;  ///< hard crash: no further flash traffic
  sim::SimTime oldest_pending_since_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  std::string site_prefix_;
  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
  obs::FlightRecorder* flightrec_ = nullptr;
  std::string fr_tag_;
  EmitObserver emit_observer_;
  DurableObserver durable_observer_;
  DestagedObserver destaged_observer_;

  // Completion reordering: pages finish out of order across dies; destaged_
  // advances over the contiguous prefix of completed stream extents.
  sim::IntervalSet completed_;

  DestageStats stats_;

  // Observability (null until SetMetrics).
  obs::Counter* m_pages_written_ = nullptr;
  obs::Counter* m_partial_pages_ = nullptr;
  obs::Counter* m_filler_bytes_ = nullptr;
  obs::Counter* m_stream_bytes_ = nullptr;
  obs::Counter* m_write_failures_ = nullptr;
  obs::Counter* m_write_retries_ = nullptr;
  obs::Counter* m_ring_trims_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Gauge* m_backlog_bytes_ = nullptr;
  obs::LatencyRecorder* m_page_latency_us_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_DESTAGE_MODULE_H_
