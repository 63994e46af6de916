// Conformance-fuzzing campaign: run seeded randomized schedules through
// the full DES stack and cross-check every observable protocol step
// against the reference model (src/check). Exits non-zero on the first
// oracle divergence, after dumping the failing schedule and its shrunk
// counterexample as replayable trace files.
//
//   check_campaign --runs 500 --seed 1 --ops 40 --shrink --metrics out.json
//   check_campaign --replay counterexample.trace
//   check_campaign --plant-bug --runs 50 --shrink
//
// With --plant-bug the campaign must find a divergence and shrink it to
// <= 15 ops, and exits non-zero if the oracle misses it. `--help` lists
// every flag.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "check/conformance.h"
#include "check/schedule.h"
#include "check/shrink.h"

namespace xssd {
namespace {

constexpr size_t kPlantedShrinkTarget = 15;  // acceptance: <= 15 ops

int WriteTrace(const std::string& path, const check::Schedule& schedule) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << check::ToText(schedule);
  std::printf("  dumped: %s\n", path.c_str());
  return 0;
}

void PrintResult(uint64_t seed, const check::CheckResult& result) {
  std::printf(
      "seed %llu: %s (%zu ops, %llu bytes appended%s%s)\n",
      static_cast<unsigned long long>(seed),
      result.ok ? "conforms" : result.first_divergence.c_str(),
      result.ops_executed,
      static_cast<unsigned long long>(result.appended),
      result.crashed ? (result.graceful_crash ? ", graceful crash"
                                              : ", hard crash")
                     : "",
      result.recovered ? ", recovered" : "");
}

}  // namespace

int Main(int argc, char** argv) {
  uint64_t first_seed = 1;
  uint64_t runs = 100;
  uint64_t ops = 40;
  bool shrink = false;
  bool plant_bug = false;
  std::string dump_dir = ".";
  std::string replay_path;
  bench::BenchReporter reporter(
      argc, argv, "check_campaign",
      {{"--runs N", &runs, "schedules to run, seeds S, S+1, ... (default 100)"},
       {"--seed S", &first_seed, "first seed (default 1)"},
       {"--ops N", &ops, "ops per generated schedule (default 40)"},
       {"--shrink", &shrink, "minimize a failing schedule before exiting"},
       {"--dump-dir DIR", &dump_dir,
        "where failing traces are written (default .)"},
       {"--replay PATH", &replay_path,
        "run one schedule from a dumped trace file and exit"},
       {"--plant-bug", &plant_bug,
        "plant the early-credit ordering bug; the run must catch it"}});
  if (runs == 0) reporter.Fail("--runs must be positive");

  check::CheckOptions options;
  options.plant_early_credit_bug = plant_bug;

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<check::Schedule> schedule = check::ScheduleFromText(buf.str());
    if (!schedule.ok()) {
      std::fprintf(stderr, "bad trace: %s\n",
                   schedule.status().ToString().c_str());
      return 2;
    }
    check::CheckResult result = check::RunSchedule(*schedule, options);
    PrintResult(schedule->seed, result);
    if (!result.ok) {
      for (const auto& d : result.divergences) {
        std::printf("  %s\n", d.ToString().c_str());
      }
    }
    reporter.Finish();
    return result.ok ? 0 : 1;
  }

  bench::PrintHeader(plant_bug
                         ? "conformance campaign (planted ordering bug)"
                         : "conformance campaign");
  size_t conforming = 0;
  size_t crashes = 0;
  size_t failovers = 0;
  size_t divergences = 0;
  int exit_code = 0;

  for (size_t run = 0; run < runs; ++run) {
    uint64_t seed = first_seed + run;
    check::Schedule schedule = check::GenerateSchedule(seed, ops);
    check::CheckResult result = check::RunSchedule(schedule, options);
    if (result.crashed) ++crashes;
    if (result.failed_over) ++failovers;
    if (result.ok) {
      ++conforming;
      continue;
    }
    ++divergences;
    PrintResult(seed, result);

    if (plant_bug) {
      // The planted-bug self-test only needs one counterexample; prove
      // the shrinker can minimize it and stop.
      check::ShrinkResult shrunk =
          check::ShrinkSchedule(schedule, options);
      std::printf(
          "  planted bug caught; shrunk %zu -> %zu ops in %zu runs: %s\n",
          schedule.ops.size(), shrunk.schedule.ops.size(), shrunk.runs,
          shrunk.divergence.c_str());
      int unwritten =
          WriteTrace(dump_dir + "/planted.trace", schedule) +
          WriteTrace(dump_dir + "/planted.shrunk.trace", shrunk.schedule);
      reporter.SetResult("planted", "found", 1);
      reporter.SetResult("planted", "shrunk_ops",
                         static_cast<double>(shrunk.schedule.ops.size()));
      reporter.SetResult("planted", "shrink_runs",
                         static_cast<double>(shrunk.runs));
      if (unwritten != 0 || !shrunk.still_failing ||
          shrunk.schedule.ops.size() > kPlantedShrinkTarget) {
        std::fprintf(stderr,
                     "FAIL: shrunk counterexample has %zu ops "
                     "(target <= %zu), stopped failing, or was not "
                     "written\n",
                     shrunk.schedule.ops.size(), kPlantedShrinkTarget);
        reporter.Finish();
        return 1;
      }
      std::printf("\nplanted-bug self-test passed (%zu-op counterexample)\n",
                  shrunk.schedule.ops.size());
      return reporter.Finish();
    }

    // A real divergence: dump the schedule (and its minimized form) for
    // replay, then fail the campaign.
    std::string base =
        dump_dir + "/diverged-seed" + std::to_string(seed);
    WriteTrace(base + ".trace", schedule);
    if (shrink) {
      check::ShrinkResult shrunk = check::ShrinkSchedule(schedule, options);
      std::printf("  shrunk %zu -> %zu ops in %zu runs: %s\n",
                  schedule.ops.size(), shrunk.schedule.ops.size(),
                  shrunk.runs, shrunk.divergence.c_str());
      WriteTrace(base + ".shrunk.trace", shrunk.schedule);
    }
    exit_code = 1;
    break;
  }

  if (plant_bug) {
    std::fprintf(stderr,
                 "FAIL: planted ordering bug survived %zu schedules "
                 "undetected\n",
                 runs);
    reporter.Finish();
    return 1;
  }

  std::printf("\n%zu/%zu schedules conform (%zu crash/recovery runs, "
              "%zu failover runs, %zu divergences)\n",
              conforming, runs, crashes, failovers, divergences);
  reporter.SetResult("campaign", "runs", static_cast<double>(runs));
  reporter.SetResult("campaign", "conforming",
                     static_cast<double>(conforming));
  reporter.SetResult("campaign", "crash_runs", static_cast<double>(crashes));
  reporter.SetResult("campaign", "failover_runs",
                     static_cast<double>(failovers));
  reporter.SetResult("campaign", "divergences",
                     static_cast<double>(divergences));
  int finish = reporter.Finish();
  return exit_code != 0 ? exit_code : finish;
}

}  // namespace xssd

int main(int argc, char** argv) { return xssd::Main(argc, argv); }
