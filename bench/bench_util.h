#ifndef XSSD_BENCH_BENCH_UTIL_H_
#define XSSD_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/config.h"
#include "fault/fault_plan.h"
#include "obs/critical_path.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "pcie/fabric.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::bench {

/// Villars configuration matching the paper's prototype environment (§6):
/// PCIe Gen2 ×4 (2 GB/s) for the CMB experiments, SRAM 4 GB/s / DRAM
/// 2 GB/s shared backing, 16 KiB flash pages, ~2 GB/s flash array.
inline core::VillarsConfig PaperVillarsConfig(core::BackingKind backing) {
  core::VillarsConfig config;
  config.cmb.backing = backing;
  if (backing == core::BackingKind::kDram) {
    // 128 MiB DRAM CMB would dominate memory; 8 MiB preserves behaviour
    // (the ring never limits; bandwidth does).
    config.cmb.ring_bytes = 8ull << 20;
  }
  config.destage.ring_lba_count = 2048;
  return config;
}

inline pcie::FabricConfig PaperFabricConfig() {
  pcie::FabricConfig config;
  config.generation = 2;
  config.lanes = 4;
  return config;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// \brief One command-line flag. `spec` is the flag and its value name
/// ("--seed N"); a spec without the leading "--" declares the bench's one
/// optional positional argument. A bool target takes no value.
struct Flag {
  std::string spec;
  std::variant<bool*, uint64_t*, double*, std::string*> target;
  std::string help;
};

/// \brief Strict argv parsing shared by every bench. An unknown flag, a
/// missing value, an unparsable number or a stray argument prints usage
/// and exits 2 before anything runs; --help prints usage and exits 0.
class FlagSet {
 public:
  explicit FlagSet(std::vector<Flag> flags) : flags_(std::move(flags)) {}

  void Parse(int argc, char** argv) {
    std::string_view prog = argc > 0 ? argv[0] : "bench";
    program_ = prog.substr(prog.find_last_of('/') + 1);
    bool positional_seen = false;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--help") {
        PrintUsage(stdout);
        std::exit(0);
      }
      bool is_flag = arg.substr(0, 2) == "--";
      const Flag* flag = Lookup(arg);
      if (flag == nullptr || (!is_flag && positional_seen)) {
        Fail((is_flag ? "unknown flag " : "unexpected argument ") +
             std::string(arg));
      }
      positional_seen |= !is_flag;
      if (auto* b = std::get_if<bool*>(&flag->target)) {
        **b = true;
        continue;
      }
      if (is_flag) {
        arg = ++i < argc ? argv[i] : "";
        if (arg.empty() || arg.substr(0, 2) == "--") {
          Fail(Token(*flag) + " needs a value");
        }
      }
      if (!Assign(*flag, arg)) {
        Fail("bad value '" + std::string(arg) + "' for " + Token(*flag));
      }
    }
  }

  /// Reject an argument the bench itself found invalid: same report and
  /// exit status as a parse error.
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    PrintUsage(stderr);
    std::exit(2);
  }

 private:
  static std::string Token(const Flag& flag) {
    return flag.spec.substr(0, flag.spec.find(' '));
  }

  /// The declared "--flag" `arg` names, or the positional for a bare word.
  const Flag* Lookup(std::string_view arg) const {
    bool is_flag = arg.substr(0, 2) == "--";
    for (const Flag& flag : flags_) {
      if (is_flag ? Token(flag) == arg : flag.spec.substr(0, 2) != "--") {
        return &flag;
      }
    }
    return nullptr;
  }

  template <typename T>
  static bool ParseNumber(std::string_view text, T* out) {
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
  }

  static bool Assign(const Flag& flag, std::string_view value) {
    if (auto* s = std::get_if<std::string*>(&flag.target)) {
      (*s)->assign(value);
      return true;
    }
    if (auto* u = std::get_if<uint64_t*>(&flag.target)) {
      return ParseNumber(value, *u);
    }
    return ParseNumber(value, std::get<double*>(flag.target));
  }

  void PrintUsage(FILE* out) const {
    std::fprintf(out, "usage: %s [flags]\n", program_.c_str());
    for (const Flag& flag : flags_) {
      std::string spec = flag.spec.substr(0, 2) == "--"
                             ? flag.spec
                             : "[" + flag.spec + "]";
      std::fprintf(out, "  %-22s %s\n", spec.c_str(), flag.help.c_str());
    }
    std::fprintf(out, "  %-22s %s\n", "--help", "print this usage and exit");
  }

  std::vector<Flag> flags_;
  std::string program_ = "bench";
};

/// Resolve a --plan argument: a bare name (no '/' or '.') is the checked-in
/// bench/plans/<name>.json, anything else a path to a plan file.
inline Result<fault::FaultPlan> LoadPlan(const std::string& arg) {
  if (arg.find_first_of("/.") == std::string::npos) {
    return fault::LoadFaultPlan(std::string(XSSD_PLANS_DIR) + "/" + arg +
                                ".json");
  }
  return fault::LoadFaultPlan(arg);
}

/// The FTL campaigns' device: 128 blocks, 4096 pages, 16 MiB.
inline flash::Geometry CampaignGeometry() {
  flash::Geometry g;
  g.channels = 4;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 16;
  g.pages_per_block = 32;
  g.page_bytes = 4096;
  return g;
}

inline ftl::FtlConfig CampaignConfig() {
  ftl::FtlConfig config;
  config.buffer_pages = 64;
  config.flush_watermark = 16;
  // GC stops once free blocks reach twice this. The target must be
  // *reachable*: valid pages at the campaign's fill level have to pack into
  // the blocks left over after the free target and the open write points,
  // or GC grinds toward it forever collecting near-fully-valid victims
  // (write amplification approaches pages_per_block).
  config.gc_low_watermark = 4;
  return config;
}

/// Campaign self-check: every failed condition is reported on stderr and
/// counted; the campaign exits non-zero if any failed.
struct Gate {
  int failures = 0;
  void Check(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      ++failures;
    }
  }
};

/// \brief Uniform bench reporting: one MetricsRegistry per bench binary,
/// exported as a JSON snapshot on exit, plus an optional Chrome trace.
///
/// Parses argv strictly (see FlagSet): the bench's own `flags` plus the
/// reporter flags below, each of which every reporting bench accepts.
///
/// Device counters accumulate across every run the bench performs; per-run
/// headline numbers go in as `bench.<name>.*` gauges via SetResult(), so
/// the snapshot carries both the raw device view and the figure's table.
class BenchReporter {
 public:
  BenchReporter(int argc, char** argv, const std::string& name,
                std::vector<Flag> flags = {})
      : name_(name), metrics_path_(name + ".metrics.json") {
    std::string slo_path;
    flags.insert(
        flags.end(),
        {{"--metrics PATH", &metrics_path_,
          "metrics snapshot destination (default " + metrics_path_ + ")"},
         {"--trace PATH", &trace_path_,
          "record simulator events as Chrome trace_event JSON"},
         {"--breakdown PATH", &breakdown_path_,
          "write the critical-path latency breakdown of request spans"},
         {"--timeseries PATH", &timeseries_path_,
          "per-window time series of every metric, one sampler per run"},
         {"--ts-interval-us N", &ts_interval_us_,
          "sampling window in virtual us (default 1000)"},
         {"--slo PATH", &slo_path,
          "JSON SLO rules evaluated per window; a fatal alert fails the run"},
         {"--flightrec PATH", &flightrec_path_,
          "flight-recorder file: crash-site dumps, then the ring at exit"}});
    flags_ = FlagSet(std::move(flags));
    flags_.Parse(argc, argv);
    if (ts_interval_us_ == 0) flags_.Fail("--ts-interval-us must be positive");
    if (!slo_path.empty()) {
      Status status = LoadSloFile(slo_path);
      if (!status.ok()) flags_.Fail("--slo " + status.ToString());
    }
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<obs::ChromeTraceWriter>();
    }
    if (!flightrec_path_.empty()) {
      Status status = flightrec_.StartDumpFile(flightrec_path_);
      if (!status.ok()) flags_.Fail("--flightrec " + status.ToString());
    }
    flightrec_.SetMetrics(&registry_);
  }

  /// Reject a bench argument after parsing: usage to stderr, exit 2.
  [[noreturn]] void Fail(const std::string& message) const {
    flags_.Fail(message);
  }

  obs::MetricsRegistry& registry() { return registry_; }

  /// Hook the trace writer (if --trace was given) into `sim`, grouping the
  /// run's events under `run_label` in the viewer.
  void AttachTrace(sim::Simulator* sim, const std::string& run_label) {
    if (!trace_) return;
    trace_->BeginProcess(run_label);
    sim->set_trace_sink(trace_.get());
  }

  /// Allocate a fresh span recorder for one run (nullptr unless
  /// --breakdown was given). The bench wires it into its nodes via
  /// EnableSpans; Finish() analyses every recorder into the breakdown
  /// report. One recorder per run keeps stream-offset joins unambiguous.
  obs::SpanRecorder* AttachSpans(sim::Simulator* sim,
                                 const std::string& run_label) {
    if (breakdown_path_.empty()) return nullptr;
    span_runs_.push_back(
        {run_label, std::make_unique<obs::SpanRecorder>(sim)});
    return span_runs_.back().recorder.get();
  }

  /// True when per-window sampling is on: --timeseries was given, --slo
  /// loaded rules, or the bench added rules programmatically.
  bool sampling_enabled() const {
    return !timeseries_path_.empty() || !slo_rules_.empty();
  }

  /// Add an SLO rule programmatically (campaign headline gates). Must be
  /// called before the runs whose samplers should evaluate it. Adding a
  /// rule enables sampling even without --timeseries.
  void AddSloRule(obs::SloRule rule) { slo_rules_.push_back(std::move(rule)); }

  /// The bench-wide black-box ring: always on, shared by every run.
  /// Benches hand it to devices (EnableFlightRecorder), injectors, and
  /// supervisors; crash sites AutoDump it.
  obs::FlightRecorder* flight_recorder() { return &flightrec_; }

  /// Allocate a per-run sampler (plus watchdog when rules exist) over the
  /// shared registry and start it at `sim`'s current time; nullptr when
  /// sampling is off. The sampler rides the simulator's time-observer
  /// hook, so the run's event sequence is identical with sampling on or
  /// off. Safe to let `sim` die first — teardown finalizes the sampler.
  obs::TimeSeriesSampler* AttachTimeSeries(sim::Simulator* sim,
                                           const std::string& run_label) {
    if (!sampling_enabled()) return nullptr;
    obs::TimeSeriesOptions options;
    options.interval = sim::Us(ts_interval_us_);
    TsRun run;
    run.label = run_label;
    if (!slo_rules_.empty()) {
      run.watchdog = std::make_unique<obs::SloWatchdog>();
      run.watchdog->SetMetrics(&registry_);
      for (const obs::SloRule& rule : slo_rules_) run.watchdog->AddRule(rule);
      run.watchdog->set_flight_recorder(&flightrec_);
    }
    run.sampler =
        std::make_unique<obs::TimeSeriesSampler>(sim, &registry_, options);
    if (run.watchdog) run.sampler->set_watchdog(run.watchdog.get());
    if (trace_) run.sampler->set_trace(trace_.get());
    run.sampler->Start();
    ts_runs_.push_back(std::move(run));
    return ts_runs_.back().sampler.get();
  }

  /// Alerts of the rule named `name`, summed over every run's watchdog.
  uint64_t SloAlerts(std::string_view name) const {
    uint64_t total = 0;
    for (const TsRun& run : ts_runs_) {
      if (run.watchdog) total += run.watchdog->AlertsFor(name);
    }
    return total;
  }

  /// Record one headline result as a gauge named
  /// "bench.<name>.<label>.<field>".
  void SetResult(const std::string& label, const std::string& field,
                 double value) {
    registry_.GetGauge("bench." + name_ + "." + label + "." + field)
        ->Set(value);
  }

  /// Write the metrics snapshot (and the trace / time series / flight
  /// recorder, when recording). Call once at the end of main(). Returns
  /// non-zero on export failures and on any fatal SLO alert.
  int Finish() {
    // Close trailing partial windows before exporting anything: samplers
    // whose simulators are still alive detach here; ones whose simulators
    // already died were finalized at teardown (Finalize is idempotent).
    for (TsRun& run : ts_runs_) run.sampler->Finalize();
    obs::JsonExporter exporter(&registry_);
    Status status = exporter.WriteFile(metrics_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot: %s (%zu metrics)\n",
                metrics_path_.c_str(), registry_.size());
    if (!breakdown_path_.empty()) {
      obs::BreakdownReporter breakdown(name_);
      for (const SpanRun& run : span_runs_) {
        breakdown.AddRun(run.label, *run.recorder);
        if (trace_) EmitSpansToTrace(*run.recorder, trace_.get());
      }
      status = breakdown.WriteFile(breakdown_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "breakdown export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("breakdown: %s (%llu requests)\n", breakdown_path_.c_str(),
                  static_cast<unsigned long long>(breakdown.request_count()));
      if (breakdown.conservation_violations() > 0) {
        // The invariant every consumer of the report relies on: attributed
        // segments partition each request's end-to-end latency exactly.
        std::fprintf(stderr,
                     "breakdown conservation violated for %llu requests\n",
                     static_cast<unsigned long long>(
                         breakdown.conservation_violations()));
        return 1;
      }
    }
    if (!timeseries_path_.empty()) {
      std::string doc = "{\"schema\": \"xssd.timeseries.v1\", \"bench\": \"" +
                        obs::JsonEscape(name_) + "\", \"runs\": {";
      bool first = true;
      for (const TsRun& run : ts_runs_) {
        if (!first) doc += ", ";
        first = false;
        doc += "\"" + obs::JsonEscape(run.label) + "\": ";
        run.sampler->AppendJson(&doc);
      }
      doc += "}}\n";
      std::ofstream ts_out(timeseries_path_);
      ts_out << doc;
      ts_out.close();
      if (!ts_out) {
        std::fprintf(stderr, "timeseries export failed: cannot write %s\n",
                     timeseries_path_.c_str());
        return 1;
      }
      size_t windows = 0;
      for (const TsRun& run : ts_runs_) windows += run.sampler->windows();
      std::printf("timeseries: %s (%zu runs, %zu windows)\n",
                  timeseries_path_.c_str(), ts_runs_.size(), windows);
    }
    if (!flightrec_path_.empty()) {
      status = flightrec_.DumpToFile(flightrec_path_, "bench exit");
      if (!status.ok()) {
        std::fprintf(stderr, "flight recorder export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("flight recorder: %s (%llu events)\n",
                  flightrec_path_.c_str(),
                  static_cast<unsigned long long>(flightrec_.appended()));
    }
    if (trace_) {
      status = trace_->WriteFile(trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("trace: %s (%zu events, %llu dropped)\n",
                  trace_path_.c_str(), trace_->event_count(),
                  static_cast<unsigned long long>(trace_->dropped()));
    }
    uint64_t fatal = 0;
    for (const TsRun& run : ts_runs_) {
      if (run.watchdog) fatal += run.watchdog->fatal_alerts();
    }
    if (fatal > 0) {
      std::fprintf(stderr, "%llu fatal SLO alert(s) — failing the bench\n",
                   static_cast<unsigned long long>(fatal));
      return 1;
    }
    return 0;
  }

 private:
  struct SpanRun {
    std::string label;
    std::unique_ptr<obs::SpanRecorder> recorder;
  };
  /// Watchdog before sampler: the sampler's destructor finalizes trailing
  /// windows, which evaluates the watchdog.
  struct TsRun {
    std::string label;
    std::unique_ptr<obs::SloWatchdog> watchdog;
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
  };

  Status LoadSloFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::IoError("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    Result<std::vector<obs::SloRule>> rules = obs::ParseSloRules(text.str());
    if (!rules.ok()) return rules.status();
    for (obs::SloRule& rule : *rules) slo_rules_.push_back(std::move(rule));
    return Status::OK();
  }

  std::string name_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string breakdown_path_;
  std::string timeseries_path_;
  std::string flightrec_path_;
  uint64_t ts_interval_us_ = 1000;
  FlagSet flags_{{}};
  obs::MetricsRegistry registry_;
  obs::FlightRecorder flightrec_;
  std::unique_ptr<obs::ChromeTraceWriter> trace_;
  std::vector<SpanRun> span_runs_;
  std::vector<obs::SloRule> slo_rules_;
  std::vector<TsRun> ts_runs_;
};

}  // namespace xssd::bench

#endif  // XSSD_BENCH_BENCH_UTIL_H_
