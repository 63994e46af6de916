#ifndef XSSD_CORE_CMB_MODULE_H_
#define XSSD_CORE_CMB_MODULE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "common/zeroed_table.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/bandwidth_server.h"
#include "sim/interval_set.h"
#include "sim/simulator.h"

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::core {

/// \brief The CMB module (paper §4.1): the fast side's intake.
///
/// Writes arriving on the byte-addressable window land in an SRAM staging
/// queue, are proactively drained into the PM backing ring, and — only once
/// they reach backing memory — advance the credit counter over the
/// contiguous prefix of the append stream. This ordering (Figure 5: queue →
/// backing → counter) is the device's persistence contract: a byte is
/// persistent iff the credit counter has moved past it.
///
/// The ring is addressed by *stream offset*: the writer appends at
/// monotonically increasing offsets, and ring address = offset mod ring
/// size. Arrival may be mostly-sequential (out of order within the staging
/// window); credit only ever advances over gap-free data.
class CmbModule {
 public:
  /// Fires with the new local credit each time it advances.
  using CreditHook = std::function<void(uint64_t credit)>;
  /// Fires on every chunk arrival (before persistence) with the stream
  /// offset — the Transport module's mirror tap (Figure 6 step 1).
  using ArrivalHook =
      std::function<void(uint64_t stream_offset, const Bytes& data)>;

  CmbModule(sim::Simulator* sim, const CmbConfig& config);

  CmbModule(const CmbModule&) = delete;
  CmbModule& operator=(const CmbModule&) = delete;

  /// A memory-write TLP landed on the ring window at `ring_offset`. The
  /// staging queue holds the handle; the bytes are copied once, into the
  /// ring, when the chunk persists.
  void OnRingWrite(uint64_t ring_offset, const Bytes& data);

  /// Serve a read of the ring window (CMB is readable per the standard).
  void ReadRing(uint64_t ring_offset, uint8_t* out, size_t len) const;

  /// Bytes persisted into the PM ring, contiguous from stream offset 0.
  uint64_t local_credit() const { return credit_; }

  uint64_t ring_bytes() const { return config_.ring_bytes; }
  uint64_t queue_bytes() const { return config_.queue_bytes; }

  /// Bytes currently in the staging queue (arrived, not yet persisted).
  uint64_t staging_occupancy() const { return staging_bytes_; }

  /// Copy persisted stream bytes [stream_offset, +len) out of the ring —
  /// the Destage module's read path. The range must lie within the last
  /// ring_bytes of the stream and be below local_credit().
  void CopyOut(uint64_t stream_offset, uint8_t* out, size_t len) const;

  /// The Destage module reports progress so the module can detect ring
  /// overwrites of un-destaged data (a protocol violation by the host).
  void set_destaged_floor(uint64_t stream_offset) {
    destaged_floor_ = stream_offset;
  }
  uint64_t destaged_floor() const { return destaged_floor_; }

  /// Count of writes that clobbered not-yet-destaged bytes (diagnostics;
  /// zero under a conforming host).
  uint64_t overwrite_violations() const { return overwrite_violations_; }

  void SetCreditHook(CreditHook hook) { credit_hook_ = std::move(hook); }
  void SetArrivalHook(ArrivalHook hook) { arrival_hook_ = std::move(hook); }

  /// Observation taps for the conformance checker (src/check): called in
  /// addition to — and before — the wired hooks, so a cross-checking model
  /// sees each protocol step before downstream modules react to it. Unlike
  /// the hooks these carry no device behaviour; detach with nullptr.
  void SetCreditObserver(CreditHook observer) {
    credit_observer_ = std::move(observer);
  }
  void SetArrivalObserver(ArrivalHook observer) {
    arrival_observer_ = std::move(observer);
  }

  /// TEST-ONLY planted ordering bug (conformance-fuzzer gate): advance the
  /// credit counter at *arrival* time, before the chunk reaches backing
  /// memory — the exact Figure 5 ordering violation the persistence
  /// contract exists to prevent. A crash that loses staged or in-flight
  /// chunks then leaves acknowledged bytes unrecoverable. Never set outside
  /// the checker's planted-bug mode.
  void set_test_only_early_credit(bool enabled) {
    test_only_early_credit_ = enabled;
  }

  /// Crash protocol step 1: on power failure the staging queue is drained
  /// into the PM ring using residual energy (functional, instantaneous in
  /// virtual time — the caps hold the device up). Credit advances as usual,
  /// including over chunks that were still queued.
  void DrainStagingForPowerLoss();

  /// Hard-crash variant: the supercap flush never happens. Staged chunks
  /// are dropped on the floor; whatever already reached the PM ring (and
  /// only that) survives into recovery.
  void AbandonStagingForCrash();

  /// Attach a fault injector (nullptr detaches). Crash site "cmb.persist"
  /// fires at the head of Persist(), losing the chunk being persisted —
  /// the in-flight-byte gap the credit contract promises to fence off.
  /// `site_prefix` (e.g. "pri/") namespaces the site per device.
  void SetFaultInjector(fault::FaultInjector* injector,
                        std::string site_prefix);

  /// Reset to a pristine fast side (reboot after destage). The stream
  /// restarts at offset 0 in a new epoch.
  void ResetForReboot();

  /// Discard stream bytes at or above `offset` (HA resync: a rejoining
  /// secondary truncates its unreplicated suffix before adopting the new
  /// primary's stream). Ring contents below `offset` are kept; staged and
  /// in-flight chunks are dropped; the credit rolls back if it had passed
  /// the cut. No credit hooks fire — the caller rewires downstream state.
  void TruncateTo(uint64_t offset);

  /// Highest stream offset received (gaps may exist below it).
  uint64_t highest_received() const { return highest_received_; }
  /// True if some byte above the credit has arrived (i.e. a gap or
  /// in-staging data exists).
  bool HasPendingBeyondCredit() const;

  double backing_bytes_per_sec() const { return backing_bytes_per_sec_; }
  sim::BandwidthServer& backing_port() { return backing_; }

  /// Register this module's metrics under `prefix` + "cmb." (occupancy,
  /// credit, intake/persist byte counts). Safe to call more than once.
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each arriving chunk opens a
  /// cmb.stage span (arrival → persisted in backing) under the ambient
  /// request context; the chunk's context is restored around Persist() so
  /// credit-hook work nests under the chunk that caused it.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

 private:
  /// Infer the stream offset a ring-window write addresses. The writer may
  /// run up to one staging window ahead of the credit, so the unique
  /// candidate in [credit, credit + ring) is correct for conforming hosts.
  uint64_t InferStreamOffset(uint64_t ring_offset) const;

  /// Move one staged chunk into backing memory (persist point). `span` is
  /// the chunk's cmb.stage span, closed once the bytes are persistent.
  void Persist(uint64_t stream_offset, const Bytes& data,
               obs::SpanContext span);

  void AdvanceCredit();

  sim::Simulator* sim_;
  CmbConfig config_;
  double backing_bytes_per_sec_;
  sim::BandwidthServer backing_;

  ZeroedTable<uint8_t> ring_;
  sim::IntervalSet received_;       ///< persisted stream intervals
  uint64_t credit_ = 0;             ///< contiguous persisted prefix
  uint64_t highest_received_ = 0;
  uint64_t destaged_floor_ = 0;
  uint64_t staging_bytes_ = 0;
  uint64_t overwrite_violations_ = 0;

  struct Staged {
    uint64_t stream_offset;
    Bytes data;
    obs::SpanContext span;
  };
  std::deque<Staged> staging_;  ///< arrived, persist event pending
  uint64_t drain_epoch_ = 0;    ///< invalidates stale persist events

  CreditHook credit_hook_;
  ArrivalHook arrival_hook_;
  CreditHook credit_observer_;
  ArrivalHook arrival_observer_;
  bool test_only_early_credit_ = false;
  fault::FaultInjector* injector_ = nullptr;
  std::string site_prefix_;
  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;

  // Observability (null until SetMetrics; hot paths test one pointer).
  obs::Counter* m_append_bytes_ = nullptr;
  obs::Counter* m_append_chunks_ = nullptr;
  obs::Counter* m_persisted_bytes_ = nullptr;
  obs::Counter* m_overwrite_violations_ = nullptr;
  obs::Counter* m_powerloss_drains_ = nullptr;
  obs::Gauge* m_staging_occupancy_ = nullptr;
  obs::Gauge* m_credit_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_CMB_MODULE_H_
