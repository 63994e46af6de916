// Shared pieces of the repository benchmark: episode results, host-side
// clocks and counters, the traced-run probes, and helpers that read the
// simulator's own metrics registry and span store.
//
// Everything here observes the simulator from outside, through public
// hooks (obs::TraceSink, obs::MetricsRegistry, obs::SpanRecorder,
// sim::EventFn's spill counter); none of it changes what is simulated.

#ifndef XSSD_PERFBENCH_HARNESS_H_
#define XSSD_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cmb_module.h"
#include "core/config.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "pcie/fabric.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace xssd::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls of the global operator new made by this process so far.
uint64_t AllocationCount();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

/// FNV-1a hash over an episode's simulated statistics. Two episodes of one
/// seed must produce the same digest on any backend.
class Digest {
 public:
  void Mix(uint64_t value);
  void MixDouble(double value);
  void MixLatencies(const sim::LatencyRecorder& recorder);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Byte `offset` of the seeded log stream the fast-side workloads append;
/// readers regenerate it to verify what comes back.
void FillStream(uint64_t seed, uint64_t offset, uint8_t* out, size_t len);

/// The prototype environment of the paper's figures (mirrors the figure
/// benches): PCIe Gen2 x4, SRAM-backed CMB, 2048-LBA destage ring.
inline core::VillarsConfig PaperVillarsConfig() {
  core::VillarsConfig config;
  config.cmb.backing = core::BackingKind::kSram;
  config.destage.ring_lba_count = 2048;
  return config;
}

inline pcie::FabricConfig PaperFabricConfig() {
  pcie::FabricConfig config;
  config.generation = 2;
  config.lanes = 4;
  return config;
}

struct EpisodeOptions {
  uint64_t seed = 1;
  /// Attach the per-layer probes (registry, spans, callback timer, timers
  /// around layer calls) and run the traced-only arms.
  bool traced = false;
  /// Planted fault for the correctness self-tests ("" = none).
  std::string plant;
  sim::Simulator::SchedulerBackend backend =
      sim::Simulator::SchedulerBackend::kWheel;
};

/// One episode: a fresh model built from the seed, set up and warmed, then
/// run through one fixed-size timed phase and checked.
struct EpisodeResult {
  double setup_host_s = 0;
  double timed_host_s = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Simulated length of the timed phase's measurement window.
  double sim_seconds = 0;
  /// The workload's primary simulated latency, in microseconds.
  sim::LatencyRecorder latency_us;
  /// Host seconds of each fixed slice of simulated time in the timed phase
  /// (see TimedPhase); identical slicing in every episode of a seed.
  std::vector<double> segment_host_s;
  /// Simulator events executed during the timed phase.
  uint64_t events = 0;
  uint64_t digest = 0;
  /// Per-layer metrics (traced episodes only).
  std::map<std::string, double> layer;
  /// The span store's critical-path report, obs::BreakdownReporter JSON
  /// (traced episodes only).
  std::string breakdown_json;
  std::vector<std::string> failures;

  /// Count `ops` failed operations, with a reason for stderr.
  void Fail(uint64_t ops, const std::string& what) {
    failed += ops;
    failures.push_back(what);
  }
  /// A check over the whole episode counts as one attempted operation, and
  /// as one failed operation when it does not hold.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(1, what);
  }
};

/// obs::TraceSink that brackets every event callback with steady_clock and
/// optionally runs a probe after each one (gauge sampling).
class CallbackTimer final : public obs::TraceSink {
 public:
  void OnEventScheduled(sim::SimTime, sim::SimTime, uint64_t) override {}
  void OnEventBegin(sim::SimTime, uint64_t) override { begin_ = Clock::now(); }
  void OnEventEnd(sim::SimTime, uint64_t) override {
    callback_ns_ += std::chrono::duration<double, std::nano>(Clock::now() -
                                                             begin_)
                        .count();
    if (after_event_) after_event_();
  }
  void OnInstant(const char*, sim::SimTime) override {}
  void OnCounterSample(const char*, sim::SimTime, double) override {}

  void set_after_event(std::function<void()> fn) {
    after_event_ = std::move(fn);
  }
  double callback_ns() const { return callback_ns_; }

 private:
  Clock::time_point begin_;
  double callback_ns_ = 0;
  std::function<void()> after_event_;
};

/// A traced episode's instruments; workloads create one only when traced.
struct Probes {
  explicit Probes(sim::Simulator* sim) : spans(sim) {}

  /// Sample the CMB staging queue (when `cmb` is non-null) and the FTL's
  /// erased pool after every event the timer brackets.
  void Watch(const core::CmbModule* cmb, const ftl::Ftl* ftl);
  /// cmb.staging_occupancy_bytes_max and ftl.free_blocks_min.
  void AddExtremes(EpisodeResult* result) const;

  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  CallbackTimer timer;
  uint64_t staging_max = 0;
  uint64_t free_blocks_min = ~0ull;
};

/// Brackets one timed phase: host wall time, simulator events, heap
/// allocations and EventFn spills. With a CallbackTimer (traced runs) it
/// also splits wall time into callback time and kernel self time.
///
/// It also stamps host time at every `segment` of simulated time, through
/// the simulator's passive time-observer hook (zero perturbation). Every
/// episode of a seed simulates the same segments, so main() can take each
/// segment's fastest execution across episodes. Not on the parallel
/// backend, where an observer would force the serial merge.
class TimedPhase final : public sim::TimeObserver {
 public:
  TimedPhase(sim::Simulator* sim, CallbackTimer* timer, sim::SimTime segment);
  ~TimedPhase() override;
  TimedPhase(const TimedPhase&) = delete;
  TimedPhase& operator=(const TimedPhase&) = delete;

  /// Stop the clocks; fills result->timed_host_s, segment_host_s and
  /// events, and the sim.* / proc.* layer metrics per op when traced.
  void End(uint64_t ops, EpisodeResult* result);

  sim::SimTime OnTimeAdvance(sim::SimTime when) override;

 private:
  void Detach();

  sim::Simulator* sim_;
  CallbackTimer* timer_;
  sim::SimTime segment_;
  sim::SimTime next_due_ = 0;
  bool observing_ = false;
  Clock::time_point start_;
  std::vector<Clock::time_point> stamps_;
  uint64_t events0_;
  uint64_t allocs0_;
  uint64_t spills0_;
};

/// Times calls the benchmark makes into one layer (traced runs).
class CallTimer {
 public:
  template <typename F>
  void Time(F&& call) {
    Clock::time_point start = Clock::now();
    call();
    ns_ += std::chrono::duration<double, std::nano>(Clock::now() - start)
               .count();
    ++calls_;
  }
  double mean_ns() const { return calls_ == 0 ? 0 : ns_ / calls_; }

 private:
  double ns_ = 0;
  uint64_t calls_ = 0;
};

/// Registry lookups that read 0 for metrics a workload never registered.
double CounterValue(const obs::MetricsRegistry& registry,
                    const std::string& name);
double GaugeValue(const obs::MetricsRegistry& registry,
                  const std::string& name);
double LatencyPercentile(const obs::MetricsRegistry& registry,
                         const std::string& name, double p);

inline double PerOp(double value, uint64_t ops) {
  return ops == 0 ? 0 : value / static_cast<double>(ops);
}
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer metrics every node-based workload reads from the registry:
/// pcie, nvme, cmb, destage, ftl, flash. Counter names are summed over
/// `prefixes` (one per node).
void AddDeviceLayerMetrics(const obs::MetricsRegistry& registry,
                           const std::vector<std::string>& prefixes,
                           uint64_t ops, EpisodeResult* result);

/// Critical-path breakdown of the requests in `spans` whose root kind is in
/// `kinds`: the breakdown.<stage>.mean_us metrics, summed over those kinds
/// and averaged per root of kind `per_kind` (one per op), and the
/// conservation check (a request whose segments do not sum to its latency
/// counts as a failed op).
void AddBreakdown(const obs::SpanRecorder& spans,
                  const std::vector<std::string>& kinds,
                  const std::string& per_kind, bool plant_violation,
                  EpisodeResult* result);

/// The Crc32c replay probe: host ns to checksum `chunks` (pairs of chunk
/// size and chunk count), the volume one episode checksummed.
double CrcReplayNs(const std::vector<std::pair<size_t, uint64_t>>& chunks);

/// CRC work of the device layers counted in `registry`, as (chunk size,
/// count): destage page headers and payloads, and per-page OOB records.
std::vector<std::pair<size_t, uint64_t>> DeviceCrcChunks(
    const obs::MetricsRegistry& registry,
    const std::vector<std::string>& prefixes);

/// The common.* metrics from the episode's CRC volume.
void AddCrcMetrics(const std::vector<std::pair<size_t, uint64_t>>& chunks,
                   uint64_t ops, EpisodeResult* result);

// Workloads (one file each).
EpisodeResult RunTpccVillars(const EpisodeOptions& options);
EpisodeResult RunDestageMixedIo(const EpisodeOptions& options);
EpisodeResult RunReplicatedAppends(const EpisodeOptions& options);
EpisodeResult RunFtlGcChurn(const EpisodeOptions& options);

}  // namespace xssd::perfbench

#endif  // XSSD_PERFBENCH_HARNESS_H_
