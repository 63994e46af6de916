// The repository benchmark: runs one X-SSD workload for a given host time
// and prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as one JSON object on the last line of stdout.
//
//   xssd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--plant CHECK] [--spans PATH]
//
// A run repeats fixed-size episodes (fresh model, set-up, warm-up, timed
// phase, checks) until --seconds of host time are used. Host metrics come
// from the least disturbed executions; simulated metrics come from one
// episode and every episode of a seed must reproduce its digest exactly.
// --plant injects a known fault into one correctness check (the
// self-tests); --spans writes a traced run's critical-path report.
// README.md beside this file documents the workloads and metrics.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace xssd::perfbench {
namespace {

struct Workload {
  const char* name;
  EpisodeResult (*run)(const EpisodeOptions&);
  std::vector<std::string> plants;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"tpcc_villars", RunTpccVillars,
       {"tpcc_commit_status", "breakdown_conservation"}},
      {"destage_mixed_io", RunDestageMixedIo, {"destage_tail_bytes"}},
      {"replicated_appends", RunReplicatedAppends,
       {"replicated_credit", "replicated_bytes"}},
      {"ftl_gc_churn", RunFtlGcChurn, {"ftl_read_verify", "ftl_oob_rebuild"}},
  };
  return workloads;
}

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"ops_per_host_s", "1/s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},     {"sim_ops_per_s", "1/s"},
    {"sim_lat_p50_us", "us"},   {"sim_lat_p99_us", "us"},
    {"sim_lat_p999_us", "us"},
};

// Per-layer metrics of the traced run. A workload reports 0 for a layer it
// does not exercise.
const Metric kPerLayer[] = {
    {"traced.ops_per_host_s", "1/s"},
    {"obs.tracing_overhead_pct", "%"},
    {"sim.events_per_op", "events/op"},
    {"sim.eventfn_spills_per_op", "spills/op"},
    {"sim.callback_host_ns_per_event", "ns"},
    {"sim.kernel_self_host_ns_per_event", "ns"},
    {"sim.parallel_vs_wheel_host_ratio", "ratio"},
    {"proc.allocs_per_op", "allocs/op"},
    {"common.crc_bytes_per_op", "B/op"},
    {"common.crc_host_ns_per_op", "ns/op"},
    {"db.populate_host_s", "s"},
    {"db.host_us_per_txn", "us"},
    {"db.log_bytes_per_txn", "B/txn"},
    {"db.group_flushes_per_ktxn", "flushes/ktxn"},
    {"host.credit_polls_per_append", "polls/append"},
    {"host.append_call_host_ns", "ns"},
    {"host.slot_rereads_per_read", "rereads/read"},
    {"host.tail_read_sim_us_p50", "us"},
    {"host.tail_read_sim_us_p99", "us"},
    {"host.read_deadline_failures", "count"},
    {"pcie.host_write_bytes_per_op", "B/op"},
    {"pcie.host_read_bytes_per_op", "B/op"},
    {"pcie.dma_bytes_per_op", "B/op"},
    {"pcie.peer_write_bytes_per_op", "B/op"},
    {"ntb.packets_per_op", "packets/op"},
    {"ntb.wire_bytes_per_op", "B/op"},
    {"ntb.link_busy_share", "ratio"},
    {"transport.counter_updates_per_op", "updates/op"},
    {"transport.shadow_advances_per_op", "advances/op"},
    {"transport.retransmit_rounds", "count"},
    {"nvme.commands_per_op", "cmds/op"},
    {"nvme.doorbells_per_command", "doorbells/cmd"},
    {"nvme.cmd_latency_us_p50", "us"},
    {"nvme.cmd_latency_us_p99", "us"},
    {"cmb.append_chunks_per_op", "chunks/op"},
    {"cmb.persisted_bytes_per_op", "B/op"},
    {"cmb.staging_occupancy_bytes_max", "B"},
    {"destage.pages_per_op", "pages/op"},
    {"destage.page_fill_ratio", "ratio"},
    {"destage.partial_pages_share", "ratio"},
    {"destage.page_latency_us_p50", "us"},
    {"destage.page_latency_us_p99", "us"},
    {"destage.write_retries", "count"},
    {"ftl.write_amp", "ratio"},
    {"ftl.gc_pages_moved_per_op", "pages/op"},
    {"ftl.gc_erases_per_kop", "erases/kop"},
    {"ftl.sched_destage_wait_us_per_io", "us"},
    {"ftl.sched_conv_wait_us_per_io", "us"},
    {"ftl.buffer_hit_ratio", "ratio"},
    {"ftl.free_blocks_min", "blocks"},
    {"flash.programs_per_op", "programs/op"},
    {"flash.reads_per_op", "reads/op"},
    {"flash.erases_per_kop", "erases/kop"},
    {"flash.read_retries_per_read", "retries/read"},
    {"flash.uncorrectable_reads", "count"},
    {"breakdown.host.poll.mean_us", "us"},
    {"breakdown.replication.wait.mean_us", "us"},
    {"breakdown.cmb.stage.mean_us", "us"},
    {"breakdown.destage.page.mean_us", "us"},
    {"breakdown.nvme.read.mean_us", "us"},
    {"breakdown.ntb.link.mean_us", "us"},
    {"breakdown.flash.program.mean_us", "us"},
    {"breakdown.request.self.mean_us", "us"},
    {"breakdown.e2e.mean_us", "us"},
    {"breakdown.requests", "count"},
    {"setup.node_init_host_s", "s"},
    {"setup.replication_setup_host_s", "s"},
    {"setup.ftl_prefill_host_s", "s"},
};

/// Fewest episodes a run makes, whatever --seconds says, so that every
/// host-time median has at least three samples.
constexpr size_t kMinEpisodes = 3;
constexpr uint64_t kMinLatencySamples = 10000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string plant;
  /// Where a traced run writes its first traced episode's span breakdown.
  std::string spans_path;
};

/// Prints usage (after `why`, unless null) and returns the exit code 2:
/// nothing runs unless the command line is complete and valid.
int Usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n", why);
  std::fprintf(stderr,
               "usage: xssd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--plant CHECK] [--spans PATH]\n"
               "workloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (*text == '\0') return false;
  for (const char* p = text; *p; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  *out = std::strtoull(text, nullptr, 10);
  return errno == 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* BackendName(sim::Simulator::SchedulerBackend backend) {
  switch (backend) {
    case sim::Simulator::SchedulerBackend::kWheel:
      return "wheel";
    case sim::Simulator::SchedulerBackend::kHeap:
      return "heap";
    case sim::Simulator::SchedulerBackend::kParallel:
      return "parallel";
  }
  return "?";
}

/// Accumulates the run-wide outcome over every episode it makes.
struct Run {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool have_digest = false;
  uint64_t digest = 0;
  size_t episodes = 0;

  void Add(const EpisodeResult& episode, const char* arm) {
    ++episodes;
    attempted += episode.attempted + 1;  // +1: the determinism check
    failed += episode.failed;
    for (const std::string& what : episode.failures) {
      std::fprintf(stderr, "FAILED (%s): %s\n", arm, what.c_str());
    }
    if (!have_digest) {
      have_digest = true;
      digest = episode.digest;
    } else if (episode.digest != digest) {
      ++failed;
      std::fprintf(stderr,
                   "FAILED (%s): simulated statistics differ from the first "
                   "episode of this seed (digest %016llx vs %016llx)\n",
                   arm, static_cast<unsigned long long>(episode.digest),
                   static_cast<unsigned long long>(digest));
    }
    std::fprintf(stderr,
                 "episode %zu (%s): setup %.3f s, timed %.3f s, %llu ops, "
                 "%llu events, digest %016llx\n",
                 episodes, arm, episode.setup_host_s, episode.timed_host_s,
                 static_cast<unsigned long long>(episode.completed),
                 static_cast<unsigned long long>(episode.events),
                 static_cast<unsigned long long>(episode.digest));
  }
};

double OpsPerHostSecond(const EpisodeResult& e) {
  return Ratio(static_cast<double>(e.completed), e.timed_host_s);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return Usage(nullptr);
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(args.seconds) ||
          args.seconds <= 0) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] - '0';
    } else if (flag == "--plant") {
      args.plant = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (args.seconds <= 0) return Usage("missing --seconds");
  if (args.trace < 0) return Usage("missing --trace");
  if (!args.plant.empty()) {
    bool known = false;
    for (const std::string& p : workload->plants) known |= p == args.plant;
    if (!known) return Usage("unknown --plant for this workload");
  }
  // The backend must be the same for the parent and the change: an
  // environment override would change it silently.
  if (std::getenv("XSSD_SIM_SCHEDULER") != nullptr) {
    std::fprintf(stderr, "error: refusing to run with XSSD_SIM_SCHEDULER set\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: refusing to time an unoptimised build\n");
  return 2;
#endif

  EpisodeOptions options;
  options.seed = args.seed;
  options.plant = args.plant;
  const bool traced = args.trace == 1;
  const bool parallel_arm = traced && args.workload == "replicated_appends";

  Run run;
  std::vector<EpisodeResult> plain;  // untraced episodes on the wheel
  std::vector<EpisodeResult> probed;  // traced episodes
  std::vector<double> parallel_timed;
  // Peak RSS once one episode has run: later episodes only add allocator
  // fragmentation, which depends on how many fit in --seconds.
  double first_episode_rss_mb = 0;
  Clock::time_point start = Clock::now();
  while (true) {
    plain.push_back(workload->run(options));
    run.Add(plain.back(), "timed");
    if (plain.size() == 1) first_episode_rss_mb = PeakRssMb();
    if (traced) {
      EpisodeOptions traced_options = options;
      traced_options.traced = true;
      probed.push_back(workload->run(traced_options));
      run.Add(probed.back(), "traced");
    }
    if (parallel_arm) {
      EpisodeOptions parallel_options = options;
      parallel_options.backend = sim::Simulator::SchedulerBackend::kParallel;
      EpisodeResult parallel = workload->run(parallel_options);
      run.Add(parallel, "parallel");
      parallel_timed.push_back(parallel.timed_host_s);
    }
    // Stop once another round would overrun --seconds.
    double elapsed = SecondsSince(start);
    double per_round = elapsed / static_cast<double>(plain.size());
    size_t min_rounds = traced ? 1 : kMinEpisodes;
    if (plain.size() >= min_rounds && elapsed + per_round > args.seconds) {
      break;
    }
  }

  const EpisodeResult& first = plain.front();
  std::vector<std::pair<const Metric*, double>> values;
  if (!traced) {
    // Host time: the least disturbed execution. On a shared machine other
    // load only ever adds time, so the fastest execution of identical work
    // is far steadier from run to run than a median. Every episode of a
    // seed simulates the same segments, so the timed phase is costed as
    // the sum over segments of each segment's fastest execution.
    std::vector<double> best_segments = first.segment_host_s;
    double best_setup = first.setup_host_s;
    for (const EpisodeResult& e : plain) {
      best_setup = std::min(best_setup, e.setup_host_s);
      if (e.segment_host_s.size() != best_segments.size()) continue;
      for (size_t i = 0; i < best_segments.size(); ++i) {
        best_segments[i] = std::min(best_segments[i], e.segment_host_s[i]);
      }
    }
    double best_timed = 0;
    for (double s : best_segments) best_timed += s;
    double best_episode = first.timed_host_s;
    for (const EpisodeResult& e : plain) {
      best_episode = std::min(best_episode, e.timed_host_s);
    }
    std::fprintf(stderr,
                 "timed phase: best segments %.4f s, best episode %.4f s, "
                 "%zu segments\n",
                 best_timed, best_episode, best_segments.size());
    const double e2e[] = {
        Ratio(static_cast<double>(first.completed), best_timed),
        best_setup,
        first_episode_rss_mb,
        Ratio(static_cast<double>(first.completed), first.sim_seconds),
        first.latency_us.Percentile(50),
        first.latency_us.Percentile(99),
        first.latency_us.Percentile(99.9),
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      values.emplace_back(&kEndToEnd[i], e2e[i]);
    }
    ++run.attempted;  // the sample-count check
    if (first.latency_us.count() < kMinLatencySamples) {
      ++run.failed;
      std::fprintf(stderr, "FAILED: only %zu latency samples (need %llu)\n",
                   first.latency_us.count(),
                   static_cast<unsigned long long>(kMinLatencySamples));
    }
  } else {
    std::map<std::string, std::vector<double>> layer;
    for (const EpisodeResult& e : probed) {
      for (const auto& [name, value] : e.layer) layer[name].push_back(value);
    }
    std::vector<double> traced_rate, traced_cost, plain_cost;
    for (const EpisodeResult& e : probed) {
      traced_rate.push_back(OpsPerHostSecond(e));
      traced_cost.push_back(Ratio(e.timed_host_s, e.completed));
    }
    for (const EpisodeResult& e : plain) {
      plain_cost.push_back(Ratio(e.timed_host_s, e.completed));
    }
    layer["traced.ops_per_host_s"] = {Median(traced_rate)};
    layer["obs.tracing_overhead_pct"] = {
        (Ratio(Median(traced_cost), Median(plain_cost)) - 1) * 100};
    if (parallel_arm) {
      std::vector<double> wheel_timed;
      for (const EpisodeResult& e : plain) wheel_timed.push_back(e.timed_host_s);
      layer["sim.parallel_vs_wheel_host_ratio"] = {
          Ratio(Median(parallel_timed), Median(wheel_timed))};
    }
    for (const Metric& metric : kPerLayer) {
      auto it = layer.find(metric.name);
      values.emplace_back(&metric, it == layer.end() ? 0 : Median(it->second));
    }
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      out << probed.front().breakdown_json;
      out.close();
      ++run.attempted;
      if (!out) {
        ++run.failed;
        std::fprintf(stderr, "FAILED: cannot write %s\n",
                     args.spans_path.c_str());
      }
    }
  }

  // Self-description: everything needed to reproduce this result.
  std::string argv_json = "[";
  for (int i = 0; i < argc; ++i) {
    if (i > 0) argv_json += ", ";
    argv_json += JsonString(argv[i]);
  }
  argv_json += "]";
  std::printf(
      "# manifest: {\"schema\": \"xssd.perfbench.v1\", \"workload\": %s, "
      "\"seed\": %llu, \"argv\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"git_describe\": %s, \"scheduler_backend\": \"%s\", \"nproc\": %u, "
      "\"episodes\": %zu, \"wall_s\": %.3f}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), argv_json.c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_GIT_DESCRIBE).c_str(), BackendName(options.backend),
      std::thread::hardware_concurrency(), run.episodes, SecondsSince(start));
  std::printf("# sim_digest: %016llx\n",
              static_cast<unsigned long long>(run.digest));

  std::string metrics;
  for (const auto& [metric, raw] : values) {
    double value = raw;
    if (!std::isfinite(value)) {
      // Never print a nan: a non-finite metric is a failed run.
      std::fprintf(stderr, "FAILED: metric %s is not finite\n", metric->name);
      ++run.failed;
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(metric->name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(metric->unit) + "}";
  }
  const bool correct = run.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), metrics.c_str());
  return 0;
}

}  // namespace xssd::perfbench

int main(int argc, char** argv) { return xssd::perfbench::Main(argc, argv); }
