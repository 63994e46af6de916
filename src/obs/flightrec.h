#ifndef XSSD_OBS_FLIGHTREC_H_
#define XSSD_OBS_FLIGHTREC_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace xssd::obs {

struct FlightRecorderOptions {
  /// Ring capacity: the last N annotated events are retained. 512 entries
  /// cover the interesting prefix of any crash site while keeping the
  /// recorder O(100 KiB) regardless of campaign length.
  size_t capacity = 512;
};

/// \brief Black-box flight recorder: a bounded ring of annotated events
/// stamped in virtual time.
///
/// Components that were handed a recorder append one-line entries at the
/// moments that matter in a post-mortem — fault injections, crash-site
/// firings, uncorrectable-read escalations, GC collects, destage-ring
/// wraps, HA promotions/fencings, watchdog alerts. Recording is always on
/// and always cheap (string append into a preallocated ring; no I/O, no
/// simulator interaction, no randomness — attaching a recorder cannot
/// perturb a run). The ring is dumped automatically at crash sites and on
/// Corruption escalation (AutoDump), and on demand at bench exit. Only the
/// first AutoDump per reason is written — the one closest to the root
/// cause; repeats are counted, so a storm of identical escalations cannot
/// flood the output.
///
/// Single-threaded like the rest of the model: recorders are only written
/// from simulator callbacks.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  struct Entry {
    uint64_t seq = 0;  ///< global append index (never resets)
    sim::SimTime when = 0;
    std::string category;  ///< "fault", "ftl.gc", "ha", "watchdog", ...
    std::string message;
  };

  /// Append one entry, evicting the oldest when the ring is full.
  void Record(sim::SimTime when, std::string_view category,
              std::string message);

  /// Retained entries, oldest first.
  std::vector<Entry> Snapshot() const;

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return options_.capacity; }
  uint64_t appended() const { return appended_; }
  uint64_t evicted() const { return evicted_; }
  uint64_t auto_dumps() const { return auto_dumps_; }
  /// AutoDumps not written because their reason had already been dumped.
  uint64_t suppressed_dumps() const { return suppressed_dumps_; }

  /// Human-readable dump of the retained ring, oldest first.
  void Dump(std::ostream& out, std::string_view reason) const;
  /// Append a Dump() to `path`.
  Status DumpToFile(const std::string& path, std::string_view reason) const;

  /// Make `path` the AutoDump destination, truncating it: one run's dumps
  /// accumulate in one file. Without a dump path, AutoDump writes stderr.
  Status StartDumpFile(std::string path);

  /// Crash-site dump of the ring, written only the first time `reason`
  /// is seen. Failures to write the file fall back to stderr — a
  /// post-mortem dump must never be lost to a bad path.
  void AutoDump(std::string_view reason);

  /// Register `obs.flightrec.*` self-metrics (appends/evictions/dumps);
  /// nullptr detaches. `obs.flightrec.suppressed_dumps` registers on the
  /// first suppressed dump, so runs without one keep their snapshot. The
  /// obs.* namespace keeps them out of the zero-perturbation comparison.
  void SetMetrics(MetricsRegistry* registry);

 private:
  FlightRecorderOptions options_;
  std::vector<Entry> ring_;
  size_t oldest_ = 0;  ///< index of the oldest entry once the ring is full
  uint64_t appended_ = 0;
  uint64_t evicted_ = 0;
  uint64_t auto_dumps_ = 0;
  uint64_t suppressed_dumps_ = 0;
  std::string dump_path_;
  std::set<std::string, std::less<>> dumped_reasons_;

  MetricsRegistry* registry_ = nullptr;
  Counter* m_appends_ = nullptr;
  Counter* m_evicted_ = nullptr;
  Counter* m_auto_dumps_ = nullptr;
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_FLIGHTREC_H_
